package main

import "strings"

// ratio is a/b, or 0 when b is 0 (a structure the organization does
// not have, or an event the workload does not produce).
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func hitRatio(c map[string]uint64, structure string) float64 {
	hit := c[structure+".hit"]
	return ratio(hit, hit+c[structure+".miss"])
}

// layerMetrics fills m with the per-layer metrics of a traced run.
// Counter-derived values come from the deterministic prefix (pre, over
// preOps operations per organization) and repeat exactly for a seed;
// host times come from the recorder's spans, allocation and GC figures
// from the untraced phase.
func layerMetrics(m map[string]metric, rec *recorder, pre [numOrgs]tally, preOps uint64,
	untraced, traced phaseStats) {
	const (
		orgDP = 0
		orgPG = 1
	)
	var overhead float64
	for o, org := range orgNames {
		for op, name := range opNames {
			h := &rec.ops[o][op]
			if op != opTouch {
				m["kernel."+name+".host_ns_p50."+org] = metric{h.quantile(0.50), "ns"}
			}
			m["kernel."+name+".host_ns_p99."+org] = metric{h.quantile(0.99), "ns"}
			m["kernel."+name+".busy_s."+org] = metric{float64(h.sum) / 1e9, "s"}
			m["kernel."+name+".calls"] = metric{float64(h.n), "count"}
		}
		m["kernel.DestroyDomain.sim_cycles_p99."+org] = metric{rec.destroyCycles[o].quantile(0.99), "cycles"}

		c := pre[o].ctr
		tlb := "tlb"
		if o == orgPG {
			tlb = "pgtlb"
		}
		m["tlb.hit_ratio."+org] = metric{hitRatio(c, tlb), "ratio"}
		m["cache.hit_ratio."+org] = metric{hitRatio(c, "cache"), "ratio"}
		m["cache.writebacks_per_op."+org] = metric{
			ratio(c["cache.writeback"]+c["cache.flush_writebacks"], preOps), "1/op"}
		var refills uint64
		for name, v := range c {
			if strings.HasPrefix(name, "trap.") && strings.HasSuffix(name, "_refill") {
				refills += v
			}
		}
		m["trap.refills_per_op."+org] = metric{ratio(refills, preOps), "1/op"}
		m["smp.requests_per_op."+org] = metric{ratio(c["smp.requests"], preOps), "1/op"}
		m["smp.ipis_per_destroy."+org] = metric{
			ratio(c["smp.ipis"]+c["smp.dev_ipis"], c["kernel.domains_destroyed"]), "1/op"}

		overhead += best(untraced.rates[o], fastestRounds) / best(traced.rates[o], fastestRounds) / numOrgs
	}
	dp, pg := pre[orgDP].ctr, pre[orgPG].ctr
	m["plb.hit_ratio"] = metric{hitRatio(dp, "plb"), "ratio"}
	m["plb.purged_per_inspected"] = metric{ratio(dp["plb.purged"], dp["plb.inspected"]), "ratio"}
	m["pgtlb.hit_ratio"] = metric{hitRatio(pg, "pgtlb"), "ratio"}
	m["pgc.hit_ratio"] = metric{hitRatio(pg, "pgc"), "ratio"}
	m["kernel.domain_ids_recycled"] = metric{float64(dp["kernel.domain_ids_recycled"]), "count"}
	m["kernel.cow_override_copies"] = metric{float64(dp["kernel.cow_override_copies"]), "count"}
	m["pg.groups_recycled"] = metric{float64(pg["pg.groups_recycled"]), "count"}

	// Memory, network and device layers, over all organizations.
	var pageouts, msgs, retrans, iotlbHits, iotlbMisses uint64
	for o := range orgNames {
		c := pre[o].ctr
		pageouts += c["kernel.pageouts"]
		msgs += c[ctrNetMsgs]
		retrans += c[ctrRetransmits]
		iotlbHits += c["iommu.iotlb_hits"]
		iotlbMisses += c["iommu.iotlb_misses"]
	}
	m["kernel.pageouts_per_op"] = metric{ratio(pageouts, numOrgs*preOps), "1/op"}
	m["net.msgs_per_op"] = metric{ratio(msgs, numOrgs*preOps), "1/op"}
	m["reliable.retransmits"] = metric{float64(retrans), "count"}
	m["iommu.iotlb_hit_ratio"] = metric{ratio(iotlbHits, iotlbHits+iotlbMisses), "ratio"}

	for a := range apps {
		var n, sum uint64
		for o := range orgNames {
			n += rec.apps[o][a].n
			sum += rec.apps[o][a].sum
		}
		m["apps."+apps[a].name+".host_ms"] = metric{ratio(sum, n) / 1e6, "ms"}
	}

	audits := traced.audits + untraced.audits
	m["oracle.verify_s"] = metric{(traced.auditDur + untraced.auditDur).Seconds() / float64(audits), "s"}
	var ops uint64
	for o := range orgNames {
		ops += untraced.ops[o]
	}
	m["go.allocs_per_op"] = metric{ratio(untraced.allocs, ops), "1/op"}
	m["go.bytes_per_op"] = metric{ratio(untraced.bytes, ops), "B/op"}
	m["go.gc_cycles"] = metric{float64(untraced.gcs), "count"}
	m["go.gc_pause_ms"] = metric{untraced.gcPause.Seconds() * 1e3, "ms"}
	m["trace.overhead_ratio"] = metric{overhead, "ratio"}
}
