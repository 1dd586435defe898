package profile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesRequestedProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	f := &Flags{cpu: &cpu, mem: &mem}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (err %v)", p, err)
		}
	}
}

func TestStartUnsetDoesNothing(t *testing.T) {
	none := ""
	f := &Flags{cpu: &none, mem: &none}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
