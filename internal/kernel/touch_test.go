package kernel_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/smp"
)

// TestStaleEntryReferenceToUnmappedPage covers the data path's one
// reference the hardware admits to a page the kernel no longer maps: CPU
// 1 caches the page, CPU 0 unmaps it, and the shootdown IPI is lost, so
// CPU 1's stale entry lets the next Load or Store through. The access
// must end in a *NotMappedError naming the page, not in a panic or a
// read of whatever frame the stale entry names.
func TestStaleEntryReferenceToUnmappedPage(t *testing.T) {
	for _, model := range allocModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.CPUs = 2
			k := kernel.New(cfg)
			d := k.CreateDomain()
			s := k.CreateSegment(2, kernel.SegmentOptions{Name: "stale"})
			k.Attach(d, s, addr.RW)
			va := s.Base()
			vpn := k.Geometry().PageNumber(va)

			k.SetCPU(1)
			if err := k.Store(d, va, 7); err != nil {
				t.Fatalf("warm store on CPU 1: %v", err)
			}
			k.SetIPIFault(func(int, smp.Request) smp.Fault { return smp.FaultDrop })
			k.SetCPU(0)
			if err := k.Unmap(vpn); err != nil {
				t.Fatalf("Unmap: %v", err)
			}
			k.SetCPU(1)

			if _, err := k.Load(d, va); !isNotMapped(err, vpn) {
				t.Fatalf("Load through the stale entry: err = %v, want *NotMappedError for vpn %#x", err, uint64(vpn))
			}
			if err := k.Store(d, va, 9); !isNotMapped(err, vpn) {
				t.Fatalf("Store through the stale entry: err = %v, want *NotMappedError for vpn %#x", err, uint64(vpn))
			}
			if k.Mapped(vpn) {
				t.Fatal("the stale reference mapped the page again")
			}
		})
	}
}

// isNotMapped reports whether err is the typed not-mapped error for vpn,
// with the message the chaos report records.
func isNotMapped(err error, vpn addr.VPN) bool {
	var nm *kernel.NotMappedError
	return errors.As(err, &nm) && nm.VPN == vpn &&
		err.Error() == fmt.Sprintf("kernel: page %#x not mapped", uint64(vpn))
}
