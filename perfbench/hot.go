package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

// The hot workload: four domains share one segment whose working set
// fits every organization's structures — 16 pages with a 2 KB span
// each, so 64 (domain, page) pairs against a 128-entry PLB/TLB and
// 32 KB against the 64 KB VIVT cache. References are kernel.Load and
// kernel.Store at 3:1, and the domain switches every 64 references.
const (
	hotDomains     = 4
	hotPages       = 16
	hotSpan        = 2048 // bytes referenced per page
	hotPageWords   = hotSpan / 8
	hotWords       = hotPages * hotPageWords
	hotSwitchEvery = 64
	hotRefs        = 1 << 16 // references per round
	// hotReadOnly is the domain attached read-only; it only loads.
	hotReadOnly = hotDomains - 1
)

// hotRef is one scripted reference: a word of the working set, the
// domain issuing it, and whether it stores.
type hotRef struct {
	word  uint16
	dom   uint8
	store bool
}

type hotOrg struct {
	k      *kernel.Kernel
	doms   [hotDomains]*kernel.Domain
	base   addr.VA
	page   addr.VA // page size
	shadow [hotWords]uint64
	digest uint64
	rounds uint64
}

type hot struct {
	checker
	seedMix uint64
	script  []hotRef
	orgs    [numOrgs]*hotOrg
}

func newHot(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	h := &hot{seedMix: rng.Uint64(), script: make([]hotRef, hotRefs)}
	dom := uint8(0)
	for i := 0; i < hotRefs; i += hotSwitchEvery {
		// Switch to one of the other domains.
		dom = (dom + 1 + uint8(rng.Intn(hotDomains-1))) % hotDomains
		for j := i; j < i+hotSwitchEvery; j++ {
			// Writable domains store one time in three, so loads and
			// stores come at 3:1 overall.
			store := dom != hotReadOnly && rng.Intn(3) == 0
			h.script[j] = hotRef{word: uint16(rng.Intn(hotWords)), dom: dom, store: store}
		}
	}
	for o, m := range orgModels {
		k, err := kernel.NewChecked(kernel.DefaultConfig(m))
		if err != nil {
			return nil, err
		}
		seg := k.CreateSegment(hotPages, kernel.SegmentOptions{Name: "hot"})
		st := &hotOrg{k: k, base: seg.Base(), page: addr.VA(k.Geometry().PageSize())}
		for i := range st.doms {
			st.doms[i] = k.CreateDomain()
			r := addr.RW
			if i == hotReadOnly {
				r = addr.Read
			}
			k.Attach(st.doms[i], seg, r)
		}
		h.orgs[o] = st
		// Warm up: every (domain, page) pair, then one pass of the
		// script, so timing starts with the structures filled.
		for _, d := range st.doms {
			for p := uint64(0); p < hotPages; p++ {
				if _, err := k.Load(d, seg.PageVA(p)); err != nil {
					return nil, fmt.Errorf("hot warm-up on %s: %w", orgNames[o], err)
				}
			}
		}
		h.round(o, nil, false)
	}
	h.endRound()
	if h.failed > 0 {
		return nil, fmt.Errorf("hot warm-up: %s", h.reasons[0])
	}
	return h, nil
}

func (h *hot) roundOps() int    { return hotRefs }
func (h *hot) checks() *checker { return &h.checker }
func mix(d, v uint64) uint64    { return (d ^ v) * 0x100000001b3 }
func (h *hot) value(r uint64, i int) uint64 {
	return (r<<32|uint64(i))*0x9e3779b97f4a7c15 ^ h.seedMix
}

// round replays the script once on organization o. Every load is
// checked against a shadow copy of the working set, and the verdicts
// and loaded values are folded into a digest the organizations must
// agree on.
func (h *hot) round(o int, rec *recorder, _ bool) int {
	st := h.orgs[o]
	k := st.k
	r := st.rounds
	st.rounds++
	dig := uint64(0)
	var t time.Time
	for i, ref := range h.script {
		d := st.doms[ref.dom]
		va := st.base + addr.VA(ref.word/hotPageWords)*st.page + addr.VA(ref.word%hotPageWords)*8
		if ref.store {
			v := h.value(r, i)
			if rec != nil {
				t = time.Now()
			}
			err := k.Store(d, va, v)
			if rec != nil {
				rec.op(o, opStore, t)
			}
			if err != nil {
				h.fail(1, "hot %s: store %d: %v", orgNames[o], i, err)
				dig = mix(dig, 0)
				continue
			}
			st.shadow[ref.word] = v
			dig = mix(dig, 1)
			continue
		}
		if rec != nil {
			t = time.Now()
		}
		v, err := k.Load(d, va)
		if rec != nil {
			rec.op(o, opLoad, t)
		}
		if err != nil {
			h.fail(1, "hot %s: load %d: %v", orgNames[o], i, err)
			dig = mix(dig, 0)
			continue
		}
		if v != st.shadow[ref.word] {
			h.fail(1, "hot %s: load %d read %#x, last stored %#x", orgNames[o], i, v, st.shadow[ref.word])
		}
		dig = mix(mix(dig, 1), v)
	}
	st.digest = dig
	return hotRefs
}

// endRound checks that every organization produced the same verdicts
// and loaded values as domain-page.
func (h *hot) endRound() {
	for o := 1; o < numOrgs; o++ {
		if h.orgs[o].digest != h.orgs[0].digest {
			h.fail(hotRefs, "hot: %s verdict/value digest differs from domain-page", orgNames[o])
		}
	}
}

func (h *hot) totals(o int) tally {
	t := tally{cycles: h.orgs[o].k.TotalCycles(), ctr: map[string]uint64{}}
	kernelCounters(h.orgs[o].k, t.ctr)
	return t
}

// audit runs the oracle over each organization's kernel.
func (h *hot) audit() int {
	t := time.Now()
	for o, st := range h.orgs {
		if err := oracle.Verify(st.k); err != nil {
			h.fail(1, "hot %s: %v", orgNames[o], err)
		}
	}
	h.auditDur += time.Since(t)
	return 1
}
