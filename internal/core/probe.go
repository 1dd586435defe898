package core

import (
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload/dsm"
)

// Probe accumulates simulator-side measurements for one experiment run:
// total simulated cycles and merged hardware counters across every
// kernel, machine, and trace replay the experiment constructs. The
// benchmark pipeline (cmd/benchreport) records these per experiment so
// regressions in the modeled system are visible independently of host
// wall time.
//
// A Probe belongs to a single experiment run and is not safe for
// concurrent use; the parallel runner gives each run its own. All
// methods are nil-safe so experiments can be driven without
// instrumentation (a nil probe records nothing).
type Probe struct {
	cycles   uint64
	counters stats.Counters
}

// ObserveCycles charges n simulated cycles to the run.
func (p *Probe) ObserveCycles(n uint64) {
	if p == nil {
		return
	}
	p.cycles += n
}

// ObserveCounters merges a counter snapshot into the run's totals.
func (p *Probe) ObserveCounters(snap map[string]uint64) {
	if p == nil {
		return
	}
	p.counters.MergeSnapshot(snap)
}

// ObserveKernel records a finished kernel's total simulated cycles
// (machine + kernel) and both counter sets — on a multiprocessor, every
// CPU's machine counters are merged. Call it once per kernel, after the
// experiment's last operation on it.
func (p *Probe) ObserveKernel(k *kernel.Kernel) {
	if p == nil || k == nil {
		return
	}
	p.cycles += k.TotalCycles()
	for i := 0; i < k.NumCPUs(); i++ {
		p.counters.Merge(k.MachineAt(i).Counters())
	}
	p.counters.Merge(k.Counters())
}

// ObserveTrace records a trace replay's cycles and machine counters.
func (p *Probe) ObserveTrace(res trace.Result) {
	if p == nil {
		return
	}
	p.cycles += res.Cycles
	p.counters.MergeSnapshot(res.Counters)
}

// SimCycles returns the simulated cycles observed so far.
func (p *Probe) SimCycles() uint64 {
	if p == nil {
		return 0
	}
	return p.cycles
}

// CounterSnapshot returns a copy of the merged counters.
func (p *Probe) CounterSnapshot() map[string]uint64 {
	if p == nil {
		return nil
	}
	return p.counters.Snapshot()
}

// observeDSM records a DSM run's cycle totals (all nodes plus the
// interconnect) and its network/reliability counters.
func observeDSM(p *Probe, rep dsm.Report) {
	if p == nil {
		return
	}
	p.ObserveCycles(rep.MachineCycles + rep.KernelCycles + rep.NetCycles)
	p.ObserveCounters(map[string]uint64{
		"net.msgs":                rep.NetMsgs,
		"net.bytes":               rep.NetBytes,
		"reliable.retransmits":    rep.Retransmits,
		"reliable.timeouts":       rep.Timeouts,
		"reliable.acks":           rep.Acks,
		"reliable.dup_suppressed": rep.DupSuppressed,
	})
}

// runTrace replays recs on m and records the result on the probe; it is
// the instrumented form of trace.Run used by the machine-level
// experiments.
func runTrace(p *Probe, m machine.Machine, recs []trace.Record) (trace.Result, error) {
	res, err := trace.Run(m, recs)
	if err != nil {
		return res, err
	}
	p.ObserveTrace(res)
	return res, nil
}
