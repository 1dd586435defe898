package kernel

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/smp"
)

// Execution-keyed protection: the extension of the domain-page model
// described by Okamoto et al. and cited in the paper's Section 5 —
// access to a page may be granted not (only) by protection domain but by
// the address the program is currently executing: "page A can be marked
// so that it has read-only access by any thread that is currently
// executing code from page B". It lets a library's private data be
// accessible exactly while its own code runs, in any domain.
//
// The reproduction models it on the domain-page (PLB) system: the kernel
// tracks each domain's execution site (the code segment it currently
// runs in); ResolveRights unions in any executor grants from that code
// segment. Because PLB entries then depend on the execution site, moving
// to a different code segment must purge the affected cached rights —
// the architectural cost of the scheme, which the counters expose
// (kernel.exec_site_purges).
//
// The page-group model cannot express execution-keyed rights without a
// group per (code segment x data segment) product, so the extension is
// restricted to ModelDomainPage.

// ErrExecUnsupported is returned when execution-keyed operations are used
// on a model that cannot express them.
var ErrExecUnsupported = fmt.Errorf("kernel: execution-keyed protection requires the domain-page model")

// execGrant records that code executing inside Code may access Target
// pages with rights R, in any domain.
type execGrant struct {
	code   *Segment
	target *Segment
	r      addr.Rights
}

// GrantExecutor grants rights r over every page of target to any thread
// whose current execution site lies inside code (Okamoto-style
// execution-keyed protection). Domain-page model only.
func (k *Kernel) GrantExecutor(target, code *Segment, r addr.Rights) error {
	if k.cfg.Model != ModelDomainPage {
		return ErrExecUnsupported
	}
	k.execGrants = append(k.execGrants, execGrant{code: code, target: target, r: r})
	k.ctrs.Inc("kernel.exec_grants")
	// Resident entries for the target may now be too weak; purge them so
	// the stronger rights fault in. (All domains: the grant is
	// domain-independent.)
	for i := uint64(0); i < target.NumPages(); i++ {
		vpn := target.PageVPN(i)
		k.maintainPage(vpn, smp.Request{Kind: smp.PurgePage, VPN: vpn})
	}
	k.flushIPIs()
	return nil
}

// RevokeExecutor removes all executor grants from code over target,
// purging any cached rights derived from them.
func (k *Kernel) RevokeExecutor(target, code *Segment) error {
	if k.cfg.Model != ModelDomainPage {
		return ErrExecUnsupported
	}
	kept := k.execGrants[:0]
	removed := false
	for _, g := range k.execGrants {
		if g.code == code && g.target == target {
			removed = true
			continue
		}
		kept = append(kept, g)
	}
	k.execGrants = kept
	if removed {
		k.ctrs.Inc("kernel.exec_revokes")
		for i := uint64(0); i < target.NumPages(); i++ {
			vpn := target.PageVPN(i)
			k.maintainPage(vpn, smp.Request{Kind: smp.PurgePage, VPN: vpn})
		}
		k.flushIPIs()
	}
	return nil
}

// SetExecutionSite records that domain d is now executing at va. When the
// move crosses a code-segment boundary, PLB entries whose rights were
// derived from the old site's executor grants are purged (and entries the
// new site enables will fault in) — the per-transfer cost of
// execution-keyed protection.
func (k *Kernel) SetExecutionSite(d *Domain, va addr.VA) error {
	if k.cfg.Model != ModelDomainPage {
		return ErrExecUnsupported
	}
	oldSeg := k.FindSegment(d.execSite)
	newSeg := k.FindSegment(va)
	d.execSite = va
	if oldSeg == newSeg {
		return nil
	}
	k.ctrs.Inc("kernel.exec_site_changes")
	// Purge cached rights for targets granted via either the old or the
	// new code segment; both sets may now resolve differently for d.
	for _, g := range k.execGrants {
		if g.code == oldSeg || g.code == newSeg {
			k.ctrs.Inc("kernel.exec_site_purges")
			k.maintainDomain(d, smp.Request{Kind: smp.RangeDetach, Range: g.target.Range})
		}
	}
	k.flushIPIs()
	return nil
}

// execRights returns the rights d derives from executor grants for vpn.
func (k *Kernel) execRights(d *Domain, vpn addr.VPN) (addr.Rights, bool) {
	if len(k.execGrants) == 0 {
		return addr.None, false
	}
	site := k.FindSegment(d.execSite)
	if site == nil {
		return addr.None, false
	}
	target := k.segmentOf(vpn)
	r := addr.None
	found := false
	for _, g := range k.execGrants {
		if g.code == site && g.target == target {
			r |= g.r
			found = true
		}
	}
	return r, found
}
