package kernel

import (
	"repro/internal/addr"
	"repro/internal/smp"
)

// The sharer directory tracks, per domain and per page, which CPUs
// hold hardware entries — the precise-targeting replacement for the
// old monotonic residency masks. It is fed from two sides:
//
//   - Installs: the machines notify the kernel (machine.ResidencyObserver)
//     whenever hardware installs an entry on the executing CPU, adding
//     the CPU to the domain's residency set and/or the page's sharer
//     set.
//   - Withdrawals: a CPU leaves sets only when the kernel can prove it
//     holds nothing the set stands for — a bulk invalidation
//     (purgeSeat/rejoin), a flush-model switch-away, or a removal-kind
//     shootdown apply after which a hardware scan finds no entry of the
//     domain left (seat.HasDomainEntries).
//
// The invariant is superset semantics: every CPU holding a live entry
// is in the corresponding set; a set may conservatively name CPUs that
// aged the entry out. Per-op IPI count therefore tracks sharer count
// (bounded by installs since the last withdrawal), never the domain's
// lifetime CPU history.

// NoteProtInstall implements machine.ResidencyObserver: the current
// CPU installed a protection entry for (d, vpn).
func (k *Kernel) NoteProtInstall(d addr.DomainID, vpn addr.VPN) {
	if dom := k.doms.get(d); dom != nil {
		dom.cpus.Add(k.cur)
	}
	k.notePage(vpn)
}

// NotePageInstall implements machine.ResidencyObserver: the current
// CPU installed translation state for vpn.
func (k *Kernel) NotePageInstall(vpn addr.VPN) { k.notePage(vpn) }

// notePage adds the current CPU to vpn's sharer set.
func (k *Kernel) notePage(vpn addr.VPN) {
	set := k.pageDir[vpn]
	if set == nil {
		set = &smp.CPUSet{}
		k.pageDir[vpn] = set
	}
	set.Add(k.cur)
}

// withdrawCPU removes CPU i from every directory set: every domain's
// residency set, every page's sharer set, and the active set. Callers
// must have proven the CPU holds no hardware entries (bulk
// invalidation, or a flush-model switch that purges everything).
func (k *Kernel) withdrawCPU(i int) {
	k.doms.forEach(func(d *Domain) { d.cpus.Remove(i) })
	for _, set := range k.pageDir {
		set.Remove(i)
	}
	k.active.Remove(i)
}

// withdrawIfEmpty removes seat t from domain d's residency set when
// its hardware provably holds no entry naming d any more (called after
// removal-kind shootdown applies). Page-group checker state is not
// scanned: group loads target by executing domain, not residency, so a
// page-group CPU reports entries and waits for a bulk invalidation.
func (k *Kernel) withdrawIfEmpty(t int, d addr.DomainID) {
	if k.seats[t].HasDomainEntries(d) {
		return
	}
	if dom := k.doms.get(d); dom != nil {
		dom.cpus.Remove(t)
	}
}

// maintainPage applies r on the current CPU and enqueues it to every
// other seat in vpn's sharer set — page-scoped targeting for
// translation maintenance (unmap, purge-page, group-update). Seats that
// never installed state for the page are skipped entirely; absent any
// sharer record nothing is sent (no seat can hold an entry that was
// never installed).
func (k *Kernel) maintainPage(vpn addr.VPN, r smp.Request) {
	k.seats[k.cur].Apply(r)
	if k.shoot == nil {
		return
	}
	set := k.pageDir[vpn]
	if set == nil {
		return
	}
	set.ForEach(func(i int) {
		if i != k.cur {
			k.enqueueShoot(i, r)
		}
	})
}

// maintainRange applies r on the current CPU and enqueues it to the
// union of sharer sets over every page the range spans (range-scoped
// purges on segment destruction).
func (k *Kernel) maintainRange(rg addr.Range, r smp.Request) {
	k.seats[k.cur].Apply(r)
	if k.shoot == nil {
		return
	}
	var union smp.CPUSet
	npages := k.geo.PagesSpanned(rg.Start, rg.Length)
	start := k.geo.PageNumber(rg.Start)
	for i := uint64(0); i < npages; i++ {
		if set := k.pageDir[start+addr.VPN(i)]; set != nil {
			union.Union(set)
		}
	}
	union.ForEach(func(i int) {
		if i != k.cur {
			k.enqueueShoot(i, r)
		}
	})
}

// DomainResident reports whether the directory lists CPU cpu in domain
// d's residency set (oracle audit hook).
func (k *Kernel) DomainResident(d addr.DomainID, cpu int) bool {
	dom := k.doms.get(d)
	return dom != nil && dom.cpus.Has(cpu)
}

// PageResident reports whether the directory lists CPU cpu in vpn's
// sharer set (oracle audit hook).
func (k *Kernel) PageResident(vpn addr.VPN, cpu int) bool {
	set := k.pageDir[vpn]
	return set != nil && set.Has(cpu)
}

// ActiveCPU reports whether CPU cpu is in the active set.
func (k *Kernel) ActiveCPU(cpu int) bool { return k.active.Has(cpu) }
