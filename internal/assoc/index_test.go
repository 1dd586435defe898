package assoc

import (
	"fmt"
	"math/rand"
	"testing"
)

// auditIndex checks that the way index of a fully associative c is exact:
// every live way is indexed exactly once, every indexed way is live, and
// every indexed key is reachable from its home slot without crossing an
// empty slot.
func auditIndex[K comparable, V any](c *Cache[K, V]) error {
	if c.slots == nil {
		return fmt.Errorf("structure has no way index")
	}
	set := c.sets[0]
	seen := make([]bool, len(set))
	n := 0
	// Walk the ring once from an empty slot, tracking where the current
	// run of occupied slots began: a key is reachable iff its home lies
	// in the run before it.
	empty := uint64(0)
	for c.slots[empty] != 0 {
		empty++
	}
	runStart := (empty + 1) & c.mask
	for k := uint64(1); k <= c.mask; k++ {
		i := (empty + k) & c.mask
		s := c.slots[i]
		if s == 0 {
			runStart = (i + 1) & c.mask
			continue
		}
		w := int(s - 1)
		if w < 0 || w >= len(set) {
			return fmt.Errorf("slot %d holds way %d outside [0,%d)", i, w, len(set))
		}
		if !c.live(&set[w]) {
			return fmt.Errorf("slot %d indexes dead way %d", i, w)
		}
		if seen[w] {
			return fmt.Errorf("way %d indexed twice", w)
		}
		seen[w] = true
		n++
		if h := c.home(set[w].key); (i-h)&c.mask > (i-runStart)&c.mask {
			return fmt.Errorf("way %d at slot %d unreachable: an empty slot lies between it and its home %d", w, i, h)
		}
	}
	for w := range set {
		if c.live(&set[w]) && !seen[w] {
			return fmt.Errorf("live way %d (key %v) not indexed", w, set[w].key)
		}
	}
	if n != c.size {
		return fmt.Errorf("index holds %d ways, structure holds %d", n, c.size)
	}
	return nil
}

// refEntry and refModel are a brute-force fully associative structure
// with the documented semantics: a linear scan per operation, the first
// free way on insert, and the policy's victim otherwise.
type refEntry struct {
	key            uint64
	val            int
	valid          bool
	lastUse, added uint64
}

type refModel struct {
	ways   []refEntry
	policy Policy
	rng    *rand.Rand
	tick   uint64
}

func newRefModel(cfg Config) *refModel {
	m := &refModel{ways: make([]refEntry, cfg.Ways), policy: cfg.Policy}
	if cfg.Policy == Random {
		m.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return m
}

func (m *refModel) find(k uint64) int {
	for i, e := range m.ways {
		if e.valid && e.key == k {
			return i
		}
	}
	return -1
}

func (m *refModel) lookup(k uint64) (int, bool) {
	m.tick++
	if i := m.find(k); i >= 0 {
		m.ways[i].lastUse = m.tick
		return m.ways[i].val, true
	}
	return 0, false
}

func (m *refModel) peek(k uint64) (int, bool) {
	if i := m.find(k); i >= 0 {
		return m.ways[i].val, true
	}
	return 0, false
}

func (m *refModel) insert(k uint64, v int) (uint64, int, bool) {
	m.tick++
	if i := m.find(k); i >= 0 {
		m.ways[i].val, m.ways[i].lastUse = v, m.tick
		return 0, 0, false
	}
	fresh := refEntry{key: k, val: v, valid: true, lastUse: m.tick, added: m.tick}
	for i := range m.ways {
		if !m.ways[i].valid {
			m.ways[i] = fresh
			return 0, 0, false
		}
	}
	victim := 0
	switch m.policy {
	case Random:
		victim = m.rng.Intn(len(m.ways))
	case FIFO:
		for i := range m.ways {
			if m.ways[i].added < m.ways[victim].added {
				victim = i
			}
		}
	default:
		for i := range m.ways {
			if m.ways[i].lastUse < m.ways[victim].lastUse {
				victim = i
			}
		}
	}
	old := m.ways[victim]
	m.ways[victim] = fresh
	return old.key, old.val, true
}

func (m *refModel) update(k uint64, v int) bool {
	if i := m.find(k); i >= 0 {
		m.ways[i].val = v
		return true
	}
	return false
}

func (m *refModel) invalidate(k uint64) bool {
	if i := m.find(k); i >= 0 {
		m.ways[i].valid = false
		return true
	}
	return false
}

func (m *refModel) purgeIf(pred func(uint64, int) bool) (removed, inspected int) {
	for i := range m.ways {
		if !m.ways[i].valid {
			continue
		}
		inspected++
		if pred(m.ways[i].key, m.ways[i].val) {
			m.ways[i].valid = false
			removed++
		}
	}
	return removed, inspected
}

func (m *refModel) updateIf(pred func(uint64, int) bool, fn func(uint64, int) int) (updated, inspected int) {
	for i := range m.ways {
		if !m.ways[i].valid {
			continue
		}
		inspected++
		if pred(m.ways[i].key, m.ways[i].val) {
			m.ways[i].val = fn(m.ways[i].key, m.ways[i].val)
			updated++
		}
	}
	return updated, inspected
}

func (m *refModel) purgeAll() int {
	n := 0
	for i := range m.ways {
		if m.ways[i].valid {
			m.ways[i].valid = false
			n++
		}
	}
	return n
}

func (m *refModel) size() int {
	n := 0
	for _, e := range m.ways {
		if e.valid {
			n++
		}
	}
	return n
}

type evictRec struct {
	key uint64
	val int
}

// TestWayIndexMatchesReference drives random operation sequences through
// indexed structures of 64, 128 and 256 ways under every policy and
// compares every result, eviction and inspection count with refModel,
// auditing the way index after each operation. The constant index
// function puts every key on one probe run, so deletions exercise the
// backward shift across the whole run.
func TestWayIndexMatchesReference(t *testing.T) {
	indexes := []struct {
		name string
		fn   func(uint64) uint64
	}{
		{"spread", func(k uint64) uint64 { return k }},
		{"constant", func(uint64) uint64 { return 7 }},
	}
	for _, ix := range indexes {
		for _, ways := range []int{64, 128, 256} {
			for _, pol := range []Policy{LRU, FIFO, Random} {
				name := fmt.Sprintf("%s/%d/%v", ix.name, ways, pol)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Sets: 1, Ways: ways, Policy: pol, Seed: int64(ways)}
					runWayIndexOps(t, cfg, ix.fn, int64(ways)*31+int64(pol))
				})
			}
		}
	}
}

// runWayIndexOps runs 24*Ways random operations with a PurgeAll every
// 8*Ways, long enough for the structure to fill and evict in between.
func runWayIndexOps(t *testing.T, cfg Config, index func(uint64) uint64, seed int64) {
	t.Helper()
	c := New[uint64, int](cfg, index)
	m := newRefModel(cfg)
	var got []evictRec
	c.OnEvict(func(k uint64, v int) { got = append(got, evictRec{k, v}) })
	rng := rand.New(rand.NewSource(seed))
	// A key space of 3x the capacity mixes hits, refills and evictions.
	keySpace := 3 * cfg.Ways
	key := func() uint64 { return uint64(rng.Intn(keySpace)) * 0x1001 }
	evictions, fullPurges := 0, 0
	for op := 0; op < 24*cfg.Ways; op++ {
		var desc string
		switch r := rng.Intn(1000); {
		case op%(8*cfg.Ways) == 8*cfg.Ways-1:
			desc = "PurgeAll"
			if g, w := c.PurgeAll(), m.purgeAll(); g != w {
				t.Fatalf("op %d %s = %d, want %d", op, desc, g, w)
			} else if g == cfg.Ways {
				fullPurges++
			}
		case r < 300:
			k := key()
			desc = fmt.Sprintf("Lookup(%#x)", k)
			gv, gok := c.Lookup(k)
			wv, wok := m.lookup(k)
			if gv != wv || gok != wok {
				t.Fatalf("op %d %s = %d,%v, want %d,%v", op, desc, gv, gok, wv, wok)
			}
		case r < 380:
			k := key()
			desc = fmt.Sprintf("Peek(%#x)", k)
			gv, gok := c.Peek(k)
			wv, wok := m.peek(k)
			if gv != wv || gok != wok {
				t.Fatalf("op %d %s = %d,%v, want %d,%v", op, desc, gv, gok, wv, wok)
			}
		case r < 800:
			k, v := key(), op
			desc = fmt.Sprintf("Insert(%#x)", k)
			got = got[:0]
			gk, gv, gok := c.Insert(k, v)
			wk, wv, wok := m.insert(k, v)
			if gk != wk || gv != wv || gok != wok {
				t.Fatalf("op %d %s evicted %#x,%d,%v, want %#x,%d,%v", op, desc, gk, gv, gok, wk, wv, wok)
			}
			if wok {
				evictions++
			}
			if wok && (len(got) != 1 || got[0] != (evictRec{wk, wv})) {
				t.Fatalf("op %d %s: OnEvict saw %v, want [{%#x %d}]", op, desc, got, wk, wv)
			}
			if !wok && len(got) != 0 {
				t.Fatalf("op %d %s: OnEvict saw %v without an eviction", op, desc, got)
			}
		case r < 850:
			k, v := key(), -op
			desc = fmt.Sprintf("Update(%#x)", k)
			if g, w := c.Update(k, v), m.update(k, v); g != w {
				t.Fatalf("op %d %s = %v, want %v", op, desc, g, w)
			}
		case r < 900:
			k := key()
			desc = fmt.Sprintf("Invalidate(%#x)", k)
			if g, w := c.Invalidate(k), m.invalidate(k); g != w {
				t.Fatalf("op %d %s = %v, want %v", op, desc, g, w)
			}
		case r < 903:
			mod := uint64(8 + rng.Intn(16))
			rem := uint64(rng.Intn(int(mod)))
			pred := func(k uint64, _ int) bool { return (k/0x1001)%mod == rem }
			desc = fmt.Sprintf("PurgeIf(k%%%d==%d)", mod, rem)
			gr, gi := c.PurgeIf(pred)
			wr, wi := m.purgeIf(pred)
			if gr != wr || gi != wi {
				t.Fatalf("op %d %s = %d,%d, want %d,%d", op, desc, gr, gi, wr, wi)
			}
		default:
			mod := uint64(2 + rng.Intn(4))
			pred := func(k uint64, _ int) bool { return (k/0x1001)%mod == 0 }
			fn := func(_ uint64, v int) int { return v + 1 }
			desc = fmt.Sprintf("UpdateIf(k%%%d==0)", mod)
			gu, gi := c.UpdateIf(pred, fn)
			wu, wi := m.updateIf(pred, fn)
			if gu != wu || gi != wi {
				t.Fatalf("op %d %s = %d,%d, want %d,%d", op, desc, gu, gi, wu, wi)
			}
		}
		if c.Len() != m.size() {
			t.Fatalf("op %d %s: Len = %d, want %d", op, desc, c.Len(), m.size())
		}
		if err := auditIndex(c); err != nil {
			t.Fatalf("op %d %s: way index: %v", op, desc, err)
		}
	}
	// The sequence must reach the paths the index maintains: victim
	// replacement and the clear of a full table.
	if evictions == 0 || fullPurges == 0 {
		t.Fatalf("%d evictions, %d purges of a full structure: sequence too weak", evictions, fullPurges)
	}
}

// TestWayIndexGeometry pins which structures get a way index: only
// fully associative ones of at least 64 ways with an index function.
func TestWayIndexGeometry(t *testing.T) {
	id := func(k uint64) uint64 { return k }
	for _, tc := range []struct {
		cfg     Config
		index   func(uint64) uint64
		indexed bool
		slots   int
	}{
		{Config{Sets: 1, Ways: 64}, id, true, 128},
		{Config{Sets: 1, Ways: 100}, id, true, 256},
		{Config{Sets: 1, Ways: 128}, id, true, 256},
		{Config{Sets: 1, Ways: 63}, id, false, 0},
		{Config{Sets: 1, Ways: 128}, nil, false, 0},
		{Config{Sets: 2, Ways: 128}, id, false, 0},
	} {
		c := New[uint64, int](tc.cfg, tc.index)
		if (c.slots != nil) != tc.indexed || len(c.slots) != tc.slots {
			t.Errorf("%+v (index %v): %d slots, want indexed=%v with %d",
				tc.cfg, tc.index != nil, len(c.slots), tc.indexed, tc.slots)
		}
	}
}
