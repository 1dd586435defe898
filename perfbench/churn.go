package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

// The churn workload: session lifecycle shaped like E18, each call
// driven and timed here. Sessions fork from a template attached to two
// shared segments, arrive with at most 32 live (an arrival above the cap
// destroys a random live session first; E18's bursts of four are the
// same sequence, since each arrival in a burst evicts first), and touch
// two pages. Every 128th session gets a private segment and every
// 256th overrides a page's rights, breaking the template's
// copy-on-write override table. The kernel has four CPUs; sessions are
// pinned round-robin and destroyed from CPU 0, so destroy shootdowns
// cross CPUs.
const (
	churnCPUs          = 4
	churnSegs          = 2
	churnSegPages      = 8
	churnMaxLive       = 32
	churnTouches       = 2
	churnPrivateEvery  = 128
	churnOverrideEvery = 256
	churnPrivatePages  = 2
	churnSessions      = 8192  // arrivals per round
	churnScript        = 32768 // distinct sessions before the script repeats
)

// sessionDraws are one session's random choices, reduced modulo the
// live-pool size or segment size where they are used.
type sessionDraws struct {
	victim   uint32
	touch    [churnTouches][2]uint32 // segment, page
	override [2]uint32
}

type session struct {
	d   *kernel.Domain
	seg *kernel.Segment // private segment, if any
	cpu int
}

type churnOrg struct {
	k        *kernel.Kernel
	segs     [churnSegs]*kernel.Segment
	template *kernel.Domain
	live     []session
	born     int
	// ids are the domain IDs ever handed to a session; ids is what the
	// post-drain audit sweeps.
	ids      map[addr.DomainID]bool
	idDigest uint64
}

type churn struct {
	checker
	script []sessionDraws
	orgs   [numOrgs]*churnOrg
}

func newChurn(seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &churn{script: make([]sessionDraws, churnScript)}
	for i := range c.script {
		s := &c.script[i]
		s.victim = rng.Uint32()
		for t := range s.touch {
			s.touch[t] = [2]uint32{rng.Uint32(), rng.Uint32()}
		}
		s.override = [2]uint32{rng.Uint32(), rng.Uint32()}
	}
	for o, m := range orgModels {
		cfg := kernel.DefaultConfig(m)
		cfg.CPUs = churnCPUs
		k, err := kernel.NewChecked(cfg)
		if err != nil {
			return nil, err
		}
		st := &churnOrg{k: k, ids: map[addr.DomainID]bool{}, live: make([]session, 0, churnMaxLive)}
		st.template = k.CreateDomain()
		for i := range st.segs {
			st.segs[i] = k.CreateSegment(churnSegPages, kernel.SegmentOptions{Name: "shared"})
			k.Attach(st.template, st.segs[i], addr.RW)
			// Warm the shared pages: they are mapped before timing.
			for p := uint64(0); p < churnSegPages; p++ {
				if err := k.Touch(st.template, st.segs[i].PageVA(p), addr.Store); err != nil {
					return nil, fmt.Errorf("churn warm-up on %s: %w", orgNames[o], err)
				}
			}
		}
		// One rights-neutral override, so every fork shares the
		// template's override table copy-on-write.
		if err := k.SetPageRights(st.template, st.segs[0].PageVA(0), addr.RW); err != nil {
			return nil, fmt.Errorf("churn template on %s: %w", orgNames[o], err)
		}
		c.orgs[o] = st
		// Warm up with one round, so timing starts with a full pool.
		c.round(o, nil, false)
	}
	c.endRound()
	if c.failed > 0 {
		return nil, fmt.Errorf("churn warm-up: %s", c.reasons[0])
	}
	return c, nil
}

func (c *churn) roundOps() int    { return churnSessions }
func (c *churn) checks() *checker { return &c.checker }

func (c *churn) round(o int, rec *recorder, prefix bool) int {
	st := c.orgs[o]
	st.idDigest = 0
	for i := 0; i < churnSessions; i++ {
		c.arrive(o, st, rec, prefix)
	}
	return churnSessions
}

// arrive runs one session: evict above the cap, fork, touch, and leave
// it live until a later arrival evicts it.
func (c *churn) arrive(o int, st *churnOrg, rec *recorder, prefix bool) {
	k := st.k
	dr := &c.script[st.born%len(c.script)]
	for len(st.live) >= churnMaxLive {
		i := int(dr.victim % uint32(len(st.live)))
		victim := st.live[i]
		st.live[i] = st.live[len(st.live)-1]
		st.live = st.live[:len(st.live)-1]
		c.destroy(o, st, victim, rec, prefix)
	}

	var t time.Time
	if rec != nil {
		t = time.Now()
	}
	d, err := k.ForkDomain(st.template)
	if rec != nil {
		rec.op(o, opFork, t)
	}
	if err != nil {
		c.fail(1, "churn %s: fork: %v", orgNames[o], err)
		return
	}
	st.born++
	st.ids[d.ID] = true
	st.idDigest = mix(st.idDigest, uint64(d.ID))
	s := session{d: d, cpu: st.born % churnCPUs}
	segs := [churnSegs + 1]*kernel.Segment{st.segs[0], st.segs[1]}
	nsegs := uint32(churnSegs)
	if st.born%churnPrivateEvery == 0 {
		s.seg = k.CreateSegment(churnPrivatePages, kernel.SegmentOptions{Name: "private"})
		k.Attach(d, s.seg, addr.RW)
		segs[churnSegs] = s.seg
		nsegs++
	}
	page := func(draw [2]uint32) addr.VA {
		seg := segs[draw[0]%nsegs]
		return seg.PageVA(uint64(draw[1]) % seg.NumPages())
	}

	k.SetCPU(s.cpu)
	for _, draw := range dr.touch {
		va := page(draw)
		if rec != nil {
			t = time.Now()
		}
		err := k.Touch(d, va, addr.Store)
		if rec != nil {
			rec.op(o, opTouch, t)
		}
		if err != nil {
			c.fail(1, "churn %s: touch: %v", orgNames[o], err)
		}
	}
	if st.born%churnOverrideEvery == 0 {
		if err := k.SetPageRights(d, page(dr.override), addr.Read); err != nil {
			c.fail(1, "churn %s: override: %v", orgNames[o], err)
		}
	}
	if s.seg != nil {
		// Detach before departure so the private segment can go with
		// the session.
		if err := k.Detach(d, s.seg); err != nil {
			c.fail(1, "churn %s: detach private segment: %v", orgNames[o], err)
		}
	}
	st.live = append(st.live, s)
}

// destroy ends session s from CPU 0, so its footprint on its own CPU
// is remote and the shootdown must travel. In a traced prefix round the
// call's simulated cycles are recorded too.
func (c *churn) destroy(o int, st *churnOrg, s session, rec *recorder, prefix bool) {
	k := st.k
	k.SetCPU(0)
	var t time.Time
	var cycles uint64
	if rec != nil {
		if prefix {
			cycles = k.TotalCycles()
		}
		t = time.Now()
	}
	err := k.DestroyDomain(s.d)
	if rec != nil {
		rec.op(o, opDestroy, t)
		if prefix {
			rec.destroyCycles[o].add(k.TotalCycles() - cycles)
		}
	}
	if err != nil {
		c.fail(1, "churn %s: destroy: %v", orgNames[o], err)
	}
	if s.seg != nil {
		if err := k.DestroySegment(s.seg); err != nil {
			c.fail(1, "churn %s: destroy private segment: %v", orgNames[o], err)
		}
	}
}

// endRound checks that every organization handed out the same domain
// IDs and holds the same live population as domain-page.
func (c *churn) endRound() {
	ref := c.orgs[0]
	for o := 1; o < numOrgs; o++ {
		st := c.orgs[o]
		if st.idDigest != ref.idDigest || st.k.LiveDomains() != ref.k.LiveDomains() {
			c.fail(churnSessions, "churn: %s domain IDs or live population differ from domain-page", orgNames[o])
		}
	}
}

func (c *churn) totals(o int) tally {
	t := tally{cycles: c.orgs[o].k.TotalCycles(), ctr: map[string]uint64{}}
	kernelCounters(c.orgs[o].k, t.ctr)
	return t
}

// audit drains every session, then sweeps each destroyed ID for
// residual authority and runs the full oracle; only the template may
// remain live.
func (c *churn) audit() int {
	for o, st := range c.orgs {
		for len(st.live) > 0 {
			s := st.live[len(st.live)-1]
			st.live = st.live[:len(st.live)-1]
			c.destroy(o, st, s, nil, false)
		}
	}
	t := time.Now()
	for o, st := range c.orgs {
		for id := range st.ids {
			if err := oracle.VerifyDestroyed(st.k, id); err != nil {
				c.fail(1, "churn %s: %v", orgNames[o], err)
			}
		}
		if err := oracle.Verify(st.k); err != nil {
			c.fail(1, "churn %s: %v", orgNames[o], err)
		}
		if n := st.k.LiveDomains(); n != 1 {
			c.fail(1, "churn %s: %d live domains after drain, want the template alone", orgNames[o], n)
		}
	}
	c.auditDur += time.Since(t)
	return 1
}
