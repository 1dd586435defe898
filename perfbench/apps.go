package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/oracle"
	"repro/internal/smp"
	"repro/internal/workload/attach"
	"repro/internal/workload/checkpoint"
	"repro/internal/workload/compress"
	"repro/internal/workload/devio"
	"repro/internal/workload/dsm"
	"repro/internal/workload/gc"
	"repro/internal/workload/rpc"
	"repro/internal/workload/txn"
)

// Counter names the apps workload adds to an organization's tally for
// the network layer, whose per-node kernels dsm builds internally.
const (
	ctrNetMsgs     = "bench.dsm_net_msgs"
	ctrRetransmits = "bench.dsm_retransmits"
)

// appRun is what one application run leaves for checking.
type appRun struct {
	// k is the run's kernel, or nil for dsm, which builds one kernel
	// per node internally and verifies page contents itself.
	k *kernel.Kernel
	// facts are results that must not depend on the organization.
	facts []uint64
	// cycles are simulated cycles when k is nil.
	cycles uint64
	// netMsgs and retransmits are dsm's network totals.
	netMsgs, retransmits uint64
}

// apps are the paper's Table 1 applications. Each run builds a fresh
// kernel, so the structures start empty. weight is the number of runs
// per round, chosen so that no application dominates host time.
var apps = []struct {
	name   string
	weight int
	run    func(m kernel.Model, seed int64) (appRun, error)
}{
	{"gc", 1, func(m kernel.Model, seed int64) (appRun, error) {
		k := kernel.New(kernel.DefaultConfig(m))
		cfg := gc.DefaultConfig()
		cfg.Seed = seed
		rep, err := gc.Run(k, cfg)
		if err == nil && rep.Flips != cfg.GCs {
			err = fmt.Errorf("%d of %d collections", rep.Flips, cfg.GCs)
		}
		return appRun{k: k, facts: []uint64{uint64(rep.Flips), rep.ObjectsCopied, uint64(rep.LiveObjects),
			rep.PagesScanned, rep.ScanFaults, rep.AllocatedDuringGC}}, err
	}},
	{"txn", 2, func(m kernel.Model, seed int64) (appRun, error) {
		k := kernel.New(kernel.DefaultConfig(m))
		cfg := txn.DefaultConfig(m)
		cfg.Seed = seed
		rep, err := txn.Run(k, cfg)
		if err == nil && rep.Commits != uint64(cfg.Transactions) {
			err = fmt.Errorf("%d of %d transactions committed", rep.Commits, cfg.Transactions)
		}
		return appRun{k: k, facts: []uint64{rep.Commits, rep.Aborts, rep.ReadLocks, rep.WriteLocks,
			rep.CommitReleases, rep.CommittedIncrements}}, err
	}},
	{"checkpoint", 6, func(m kernel.Model, seed int64) (appRun, error) {
		k := kernel.New(kernel.DefaultConfig(m))
		cfg := checkpoint.DefaultConfig()
		cfg.Seed = seed
		rep, err := checkpoint.Run(k, cfg)
		if err == nil && rep.Checkpoints != cfg.Checkpoints {
			err = fmt.Errorf("%d of %d checkpoints", rep.Checkpoints, cfg.Checkpoints)
		}
		return appRun{k: k, facts: []uint64{uint64(rep.Checkpoints), rep.COWFaults, rep.SweepSaves,
			rep.StableWrites}}, err
	}},
	{"compress", 1, func(m kernel.Model, seed int64) (appRun, error) {
		k := kernel.New(kernel.DefaultConfig(m))
		cfg := compress.DefaultConfig()
		// A quarter of the default reference count keeps one run near
		// the others' host time, so rounds stay short.
		cfg.Ops /= 4
		cfg.Seed = seed
		rep, err := compress.Run(k, cfg)
		if err == nil && rep.MaxResident > cfg.ResidentBudget {
			err = fmt.Errorf("%d pages resident, budget %d", rep.MaxResident, cfg.ResidentBudget)
		}
		return appRun{k: k, facts: []uint64{rep.PageOuts, rep.PageIns, rep.ReclaimFaults,
			uint64(rep.MaxResident), uint64(rep.CompressedRatio * 1e9)}}, err
	}},
	{"attach", 12, func(m kernel.Model, _ int64) (appRun, error) {
		k := kernel.New(kernel.DefaultConfig(m))
		rep, err := attach.Run(k, attach.DefaultConfig())
		return appRun{k: k, facts: []uint64{rep.AttachOps, rep.DetachOps}}, err
	}},
	{"rpc", 6, func(m kernel.Model, _ int64) (appRun, error) {
		k := kernel.New(kernel.DefaultConfig(m))
		cfg := rpc.DefaultConfig()
		rep, err := rpc.Run(k, cfg)
		if err == nil && rep.Calls != cfg.Calls {
			err = fmt.Errorf("%d of %d calls", rep.Calls, cfg.Calls)
		}
		return appRun{k: k, facts: []uint64{uint64(rep.Calls), rep.Switches}}, err
	}},
	{"dsm", 1, func(m kernel.Model, seed int64) (appRun, error) {
		cfg := dsm.DefaultConfig(m)
		cfg.Seed = seed
		// A lossy interconnect, so the reliable-delivery layer works.
		cfg.Net.Faults = netsim.FaultPlan{Seed: seed, DropPercent: 5}
		rep, err := dsm.Run(cfg)
		return appRun{cycles: rep.MachineCycles + rep.KernelCycles, netMsgs: rep.NetMsgs,
			retransmits: rep.Retransmits,
			facts: []uint64{rep.ReadFaults, rep.WriteFaults, rep.Invalidations, rep.PageTransfers,
				rep.NetMsgs, rep.NetBytes, rep.Retransmits}}, err
	}},
	{"devio", 3, func(m kernel.Model, seed int64) (appRun, error) {
		cfg := kernel.DefaultConfig(m)
		cfg.CPUs = 4
		cfg.Devices = []kernel.DeviceConfig{
			{Name: "nic0", Kind: iommu.NIC},
			{Name: "dma0", Kind: iommu.DMAEngine},
			{Name: "gc0", Kind: iommu.GCScanner},
		}
		k, err := kernel.NewChecked(cfg)
		if err != nil {
			return appRun{}, err
		}
		k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
		wcfg := devio.DefaultConfig()
		wcfg.Seed = seed
		rep, err := devio.Run(k, wcfg)
		if err == nil && (rep.VerifyFailures > 0 || rep.Fenced > 0 || rep.Rounds != wcfg.Rounds) {
			err = fmt.Errorf("%d rounds, %d approved writes lost, %d transfers fenced",
				rep.Rounds, rep.VerifyFailures, rep.Fenced)
		}
		return appRun{k: k, facts: []uint64{uint64(rep.Rounds), rep.DevWrites, rep.DevReads, rep.GCTouches,
			rep.CPUWrites, rep.Denied, rep.Revocations}}, err
	}},
}

const numApps = 8

type appsOrg struct {
	cycles uint64
	ctr    map[string]uint64
	// digest folds every run's facts of the current round.
	digest uint64
	// rounds and firstCycles check that every round costs the same
	// simulated cycles, since each runs the same inputs on fresh kernels.
	rounds      int
	firstCycles uint64
}

type appsBench struct {
	checker
	seed   int64
	orgs   [numOrgs]*appsOrg
	rounds int // rounds audited since the last audit call
}

func newApps(seed int64) (workload, error) {
	a := &appsBench{seed: seed}
	for o := range a.orgs {
		a.orgs[o] = &appsOrg{ctr: map[string]uint64{}}
	}
	// Warm-up: one run of every application per organization.
	for o, m := range orgModels {
		for i, app := range apps {
			if _, err := app.run(m, a.appSeed(i, 0)); err != nil {
				return nil, fmt.Errorf("apps warm-up: %s on %s: %w", app.name, orgNames[o], err)
			}
		}
	}
	return a, nil
}

// appSeed derives the seed of run rep of application i.
func (a *appsBench) appSeed(i, rep int) int64 {
	return a.seed*1_000_003 + int64(i)*1_009 + int64(rep)
}

func (a *appsBench) checks() *checker { return &a.checker }

func (a *appsBench) roundOps() int {
	n := 0
	for _, app := range apps {
		n += app.weight
	}
	return n
}

// round runs every application its weight's number of times on fresh
// kernels of organization o. Only the runs themselves count as
// operation time; the checks and oracle audit after each do not.
func (a *appsBench) round(o int, rec *recorder, prefix bool) int {
	st := a.orgs[o]
	st.digest = 0
	var cycles uint64
	for i, app := range apps {
		for rep := 0; rep < app.weight; rep++ {
			t := time.Now()
			res, err := app.run(orgModels[o], a.appSeed(i, rep))
			d := time.Since(t)
			if rec != nil {
				rec.app(o, i, d)
			}
			t = time.Now()
			if err != nil {
				a.fail(1, "apps %s on %s: %v", app.name, orgNames[o], err)
			} else {
				cycles += a.check(st, res)
			}
			if prefix {
				heapSampler.sampleLive()
				runtime.KeepAlive(res.k)
			}
			a.untimed += time.Since(t)
		}
	}
	st.cycles += cycles
	if st.rounds == 0 {
		st.firstCycles = cycles
	} else if cycles != st.firstCycles {
		a.fail(uint64(a.roundOps()), "apps %s: round %d cost %d simulated cycles, round 0 cost %d",
			orgNames[o], st.rounds, cycles, st.firstCycles)
	}
	st.rounds++
	return a.roundOps()
}

// check audits a finished run's kernel with the oracle, folds its
// counters and results into the organization's tally and digest, and
// returns its simulated cycles.
func (a *appsBench) check(st *appsOrg, res appRun) uint64 {
	if res.k != nil {
		res.cycles = res.k.TotalCycles()
		kernelCounters(res.k, st.ctr)
		t := time.Now()
		if err := oracle.Verify(res.k); err != nil {
			a.fail(1, "apps on %s: %v", res.k.Model(), err)
		}
		a.auditDur += time.Since(t)
	}
	st.ctr[ctrNetMsgs] += res.netMsgs
	st.ctr[ctrRetransmits] += res.retransmits
	for _, f := range res.facts {
		st.digest = mix(st.digest, f)
	}
	return res.cycles
}

// endRound checks that every application reported the same
// organization-independent results on every organization.
func (a *appsBench) endRound() {
	a.rounds++
	for o := 1; o < numOrgs; o++ {
		if a.orgs[o].digest != a.orgs[0].digest {
			a.fail(uint64(a.roundOps()), "apps: %s results differ from domain-page", orgNames[o])
		}
	}
}

func (a *appsBench) totals(o int) tally {
	t := tally{cycles: a.orgs[o].cycles, ctr: map[string]uint64{}}
	for k, v := range a.orgs[o].ctr {
		t.ctr[k] = v
	}
	return t
}

// audit reports the rounds whose kernels were audited since the last
// call; the audits themselves run after every application run.
func (a *appsBench) audit() int {
	n := a.rounds
	a.rounds = 0
	return n
}
