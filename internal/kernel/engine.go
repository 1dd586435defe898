package kernel

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/addr"
	"repro/internal/machine"
	"repro/internal/smp"
	"repro/internal/stats"
)

// engine is the per-model protection policy: it translates the kernel's
// model-independent protection operations into the hardware manipulations
// of Table 1's two implementation columns.
type engine interface {
	// onCreateSegment assigns per-segment engine state; it may fail when
	// an architectural namespace (page-group numbers) is exhausted.
	onCreateSegment(s *Segment) error
	onAttach(d *Domain, s *Segment, r addr.Rights)
	onDetach(d *Domain, s *Segment)
	// setPageRights syncs hardware after domain d's rights to one page
	// changed in the kernel tables.
	setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error
	// setSegmentRights syncs hardware after domain d's rights to a whole
	// segment changed.
	setSegmentRights(d *Domain, s *Segment, r addr.Rights) error
	onUnmap(vpn addr.VPN)
	// onDestroySegment releases per-segment engine state (the segment is
	// already fully detached).
	onDestroySegment(s *Segment)
	// onDestroyDomain withdraws every hardware protection entry naming d
	// and scrubs engine bookkeeping of its ID — d's number is about to be
	// recycled, so nothing keyed by it may survive.
	onDestroyDomain(d *Domain)
	// onFork accounts engine-side state the child inherits with its
	// parent's attachments (hardware entries are faulted in lazily,
	// never copied).
	onFork(parent, child *Domain)
}

// --- Kernel-level protection operations (model-independent API) ---

// SetPageRights changes domain d's access rights to the single page
// holding va (Table 1: the per-domain, per-page operation that most
// sharply separates the two models, Section 4.1.2).
func (k *Kernel) SetPageRights(d *Domain, va addr.VA, r addr.Rights) error {
	vpn := k.geo.PageNumber(va)
	s := k.segmentOf(vpn)
	if s == nil {
		return ErrNoAuthority
	}
	k.overridesRW(d).Set(vpn, r)
	k.hSetPageRights.Inc()
	err := k.engine.setPageRights(d, vpn, r)
	k.flushIPIs()
	return err
}

// ClearPageRights removes domain d's per-page override, reverting the page
// to the domain's segment attachment rights.
func (k *Kernel) ClearPageRights(d *Domain, va addr.VA) error {
	vpn := k.geo.PageNumber(va)
	s := k.segmentOf(vpn)
	if s == nil {
		return ErrNoAuthority
	}
	if _, ok := d.overrides.Get(vpn); !ok {
		return nil
	}
	k.overridesRW(d).Clear(vpn)
	r, _ := d.attached.get(s.ID)
	k.ctrs.Inc("kernel.clear_page_rights")
	err := k.engine.setPageRights(d, vpn, r)
	k.flushIPIs()
	return err
}

// SetSegmentRights changes domain d's rights over every page of segment s
// at once (GC space flips, checkpoint restriction — the segment-wide rows
// of Table 1). Any per-page overrides d held in the segment are cleared.
func (k *Kernel) SetSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	i, ok := d.attached.index(s.ID)
	if !ok {
		return ErrNotAttached
	}
	d.attached[i].v = r
	s.attached.set(d.ID, r)
	if d.overrides.Len() > 0 {
		k.overridesRW(d).ClearRange(k.geo.PageNumber(s.Range.Start), s.NumPages())
	}
	k.ctrs.Inc("kernel.set_segment_rights")
	err := k.engine.setSegmentRights(d, s, r)
	k.flushIPIs()
	return err
}

// --- Domain-page engine (PLB machine) ---

// dpEngine drives the PLB machine: protection changes are single-entry PLB
// updates; segment-wide changes and detaches are PLB scans.
type dpEngine struct {
	k *Kernel
}

func (e *dpEngine) onCreateSegment(*Segment) error { return nil }

// onAttach does nothing: access rights are faulted into the PLB one page
// at a time as the domain touches them (Table 1, row 1).
func (e *dpEngine) onAttach(*Domain, *Segment, addr.Rights) {}

// onDetach purges the domain's PLB entries for the segment: either a
// precise scan of every resident entry or a flash clear of the whole PLB
// (Table 1, row 2; ablation A5).
func (e *dpEngine) onDetach(d *Domain, s *Segment) {
	if e.k.cfg.PLBDetach == DetachPurgeAll {
		e.k.maintainDomain(d, smp.Request{Kind: smp.PurgeAllProt})
		return
	}
	e.k.maintainDomain(d, smp.Request{Kind: smp.RangeDetach, Range: s.Range})
}

// setPageRights updates the resident PLB entry for (d, page), if any —
// one entry, other domains untouched. For super-page segments the
// covering entry is too coarse to update in place: it is invalidated and
// a base-page entry installed (sibling pages re-fault their super-page
// entry lazily).
func (e *dpEngine) setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error {
	if s := e.k.segmentOf(vpn); s != nil && s.protShift != 0 {
		// Remote CPUs just invalidate and re-fault at the new rights;
		// the eager install makes this CPU a holder of d's entries.
		e.k.maintainDomain(d, smp.Request{Kind: smp.InvalRights, VPN: vpn})
		e.k.PLBMachine().InstallRights(d.ID, e.k.geo.Base(vpn), e.k.geo.Shift(), r)
		return nil
	}
	e.k.maintainDomain(d, smp.Request{Kind: smp.UpdateRights, VPN: vpn, Rights: r})
	return nil
}

// setSegmentRights rewrites the domain's resident entries across the
// segment with a full PLB scan.
func (e *dpEngine) setSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	e.k.maintainDomain(d, smp.Request{Kind: smp.RangeRights, Range: s.Range, Rights: r})
	return nil
}

func (e *dpEngine) onUnmap(vpn addr.VPN) {
	e.k.maintainPage(vpn, smp.Request{Kind: smp.Unmap, VPN: vpn})
}

// onDestroySegment purges any lingering PLB entries for the segment's
// range (stale entries of long-detached domains cannot exist — detach
// purged them — but execution-keyed entries might).
func (e *dpEngine) onDestroySegment(s *Segment) {
	e.k.maintainRange(s.Range, smp.Request{Kind: smp.RangePurge, Range: s.Range})
}

// onDestroyDomain drops every PLB entry naming the dying domain with
// purge-by-domain scans (purgeDomain).
func (e *dpEngine) onDestroyDomain(d *Domain) { e.k.purgeDomain(d) }

// onFork is free in the domain-page model: the child's PLB entries fault
// in on first touch, exactly like any other attachment (the PLB-fill
// charging the paper's Table 1 row 1 describes).
func (e *dpEngine) onFork(*Domain, *Domain) {}

// --- Page-group engine (PA-RISC machine) ---

// pgEngine drives the page-group machine. Every segment owns a primary
// page-group; per-domain, per-page rights changes move pages into derived
// groups whose membership (and write-disable bits) encode the desired
// per-domain rights vector — the group-juggling of Section 4.1.2.
type pgEngine struct {
	k *Kernel
	// sigIndex maps (segment, membership signature) to an existing
	// derived group, so pages with identical sharing reuse one group.
	sigIndex map[string]addr.GroupID
	// derived holds one record per live derived group.
	derived map[addr.GroupID]*derivedGroup
	// deadScratch is onDestroySegment's reusable buffer for the dying
	// segment's derived groups.
	deadScratch []addr.GroupID

	// Counter handles. Fork and destroy bump the per-group ones once per
	// group in the domain's set.
	hGrants, hRevokes, hPageMoves, hForkCopies stats.Handle
	hClamps, hRecycled, hCreated, hGCed        stats.Handle
}

func newPGEngine(k *Kernel) *pgEngine {
	return &pgEngine{
		k:           k,
		sigIndex:    make(map[string]addr.GroupID),
		derived:     make(map[addr.GroupID]*derivedGroup),
		hGrants:     k.ctrs.Handle("pg.grants"),
		hRevokes:    k.ctrs.Handle("pg.revokes"),
		hPageMoves:  k.ctrs.Handle("pg.page_moves"),
		hForkCopies: k.ctrs.Handle("pg.fork_group_copies"),
		hClamps:     k.ctrs.Handle("pg.unrepresentable_clamps"),
		hRecycled:   k.ctrs.Handle("pg.groups_recycled"),
		hCreated:    k.ctrs.Handle("pg.groups_created"),
		hGCed:       k.ctrs.Handle("pg.derived_groups_gced"),
	}
}

// derivedGroup is the engine's record of one derived group.
type derivedGroup struct {
	// seg is the segment whose pages the group holds.
	seg addr.SegmentID
	// pages counts the pages currently parked in the group. When the
	// count drops to zero the group is garbage: its memberships are
	// revoked and the number returns to the free list (freeDerived).
	// Without this, a long-lived shared segment leaks one group per
	// retired sharing pattern — and every long-lived domain's group set
	// (and so every fork and destroy walking it) grows without bound
	// under session churn.
	pages int
	// sig is the signature the group was indexed under at creation, or
	// empty once un-indexed (memberless groups are never indexed).
	// Membership changes (a member dying, a fork joining) mean the group
	// can never match a seeker's signature again, so the change simply
	// un-indexes it in O(1) — recomputing and reindexing signatures on
	// every membership change would make each destroy and fork
	// O(groups × members) in string building.
	sig string
	// members lists the domains holding the group with their
	// write-disable bits, ascending by ID: revocation walks it in stored
	// order, so its shootdowns enqueue deterministically without a sort.
	members idSet[addr.DomainID, bool]
}

// unindex drops derived group g from the signature index. Called when
// g's membership diverges from its creation-time signature: the stale
// index entry could never match a seeker's member list, so g just stops
// being a reuse candidate (seekers mint a fresh group; the page-count GC
// reclaims this one when its last page leaves).
func (e *pgEngine) unindex(g addr.GroupID, dg *derivedGroup) {
	if dg.sig == "" {
		return
	}
	if e.sigIndex[dg.sig] == g {
		delete(e.sigIndex, dg.sig)
	}
	dg.sig = ""
}

// newGroup hands out a page-group number, preferring recycled numbers
// from destroyed segments over fresh ones: group numbers are a finite
// architectural namespace (Section 4.2's 2^N group registers), so a
// long-lived system must reuse them or exhaust. When both the free list
// and the counter are spent it reports ErrGroupIDsExhausted instead of
// silently wrapping onto live groups.
func (e *pgEngine) newGroup() (addr.GroupID, error) {
	if n := len(e.k.freeGroups); n > 0 {
		g := e.k.freeGroups[n-1]
		e.k.freeGroups = e.k.freeGroups[:n-1]
		e.hRecycled.Inc()
		return g, nil
	}
	if e.k.nextGroup == 0 || (e.k.maxGroup != 0 && e.k.nextGroup > e.k.maxGroup) {
		return 0, ErrGroupIDsExhausted
	}
	g := e.k.nextGroup
	e.k.nextGroup++
	e.hCreated.Inc()
	return g, nil
}

func (e *pgEngine) onCreateSegment(s *Segment) error {
	g, err := e.newGroup()
	if err != nil {
		return err
	}
	s.group = g
	s.groupRights = addr.None
	return nil
}

// grant adds g to d's group set with the given write-disable bit, syncing
// the machine's checker if d is executing.
func (e *pgEngine) grant(d *Domain, g addr.GroupID, wd bool) {
	i, ok := d.groupIndex(g)
	switch {
	case !ok:
		d.groups = slices.Insert(d.groups, i, machine.GroupAccess{Group: g, WriteDisable: wd})
	case d.groups[i].WriteDisable == wd:
		return
	default:
		d.groups[i].WriteDisable = wd
	}
	e.hGrants.Inc()
	e.k.maintainExecuting(d, smp.Request{Kind: smp.GroupLoad, Group: g, WD: wd})
}

// revoke removes g from d's group set.
func (e *pgEngine) revoke(d *Domain, g addr.GroupID) {
	i, ok := d.groupIndex(g)
	if !ok {
		return
	}
	d.groups = slices.Delete(d.groups, i, i+1)
	e.withdraw(d, g)
}

// withdraw purges g, which just left d's group set, from the local
// checker and from every remote seat executing d.
func (e *pgEngine) withdraw(d *Domain, g addr.GroupID) {
	e.hRevokes.Inc()
	e.k.maintainExecuting(d, smp.Request{Kind: smp.GroupRevoke, Group: g})
}

// recomputePrimary re-derives the segment's primary group state from its
// attachments. The rights field is sticky — it only ever grows — so that
// revoking one domain's write access is a pure write-disable-bit flip
// (Table 1 "Restrict Access": "mark the page-group read-only to the
// application") and never requires touching the per-page TLB entries.
func (e *pgEngine) recomputePrimary(s *Segment) {
	union := addr.None
	for _, a := range s.attached {
		union |= a.v
	}
	field := s.groupRights | union
	for _, a := range s.attached {
		r := a.v
		d := e.k.doms.get(a.id)
		if d == nil {
			continue
		}
		if r == addr.None {
			e.revoke(d, s.group)
			continue
		}
		// A domain whose rights are the field minus write gets the
		// write-disable bit; anything else the encoding cannot express
		// is clamped (Section 4.1.2's expressiveness limit).
		wd := false
		switch r {
		case field:
		case field.WithoutWrite():
			wd = field&addr.Write != 0
		default:
			e.hClamps.Inc()
			wd = field&addr.Write != 0 && r&addr.Write == 0
		}
		e.grant(d, s.group, wd)
	}
	if field == s.groupRights {
		return
	}
	s.groupRights = field
	// Touched pages still in the primary group pick up the grown rights
	// field; untouched pages inherit it when their record is created.
	for _, vpn := range e.segPages(s) {
		p := s.pageRecs[vpn]
		if p.group == s.group && p.groupRights != field {
			p.groupRights = field
			e.k.maintainPage(vpn, smp.Request{Kind: smp.GroupUpdate, VPN: vpn, Group: p.group, Rights: field})
		}
	}
}

// segPages returns the VPNs of the segment's touched pages ascending
// (pageRecs replaces the old scan over every page record in the kernel,
// which cost O(all pages) per segment resync).
func (e *pgEngine) segPages(s *Segment) []addr.VPN {
	vpns := make([]addr.VPN, 0, len(s.pageRecs))
	for vpn := range s.pageRecs {
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)
	return vpns
}

func (e *pgEngine) onAttach(d *Domain, s *Segment, r addr.Rights) {
	// Representability: r must be the (new) union or the union without
	// write; otherwise the page-group model clamps the odd domain (the
	// model's expressiveness limit, Section 4.1.2).
	union := addr.None
	for _, a := range s.attached {
		union |= a.v
	}
	if r != addr.None && r != union && r != union.WithoutWrite() {
		e.hClamps.Inc()
	}
	e.resyncSegment(s)
}

func (e *pgEngine) onDetach(d *Domain, s *Segment) {
	// Remove the primary group from the domain's set and purge it from
	// the checker: one operation, no scan (Table 1, row 2).
	e.revoke(d, s.group)
	// Pages in derived groups must be re-derived: their desired vectors
	// changed with the detaching domain's authority.
	e.resyncSegment(s)
}

// resyncSegment recomputes the primary group and re-derives every page of
// the segment currently parked in a derived group, so group memberships
// track the current attachments and overrides.
func (e *pgEngine) resyncSegment(s *Segment) {
	e.recomputePrimary(s)
	for _, vpn := range e.segPages(s) {
		p := s.pageRecs[vpn]
		if p.group != s.group {
			if err := e.regroup(vpn, p); err != nil {
				// Unrepresentable vector (or a group namespace drained to
				// empty) during a void-returning resync: clamp by leaving
				// the page where it is and counting.
				e.hClamps.Inc()
			}
		}
	}
}

// desiredVector computes, for every domain attached to the page's
// segment, the rights the kernel wants it to have on the page, ascending
// by domain. Domains that want no access are left out.
func (e *pgEngine) desiredVector(p *page, vpn addr.VPN) idSet[addr.DomainID, addr.Rights] {
	out := make(idSet[addr.DomainID, addr.Rights], 0, len(p.seg.attached))
	for _, a := range p.seg.attached {
		d := e.k.doms.get(a.id)
		if d == nil {
			continue
		}
		r := a.v
		if or, ok := d.overrides.Get(vpn); ok {
			r = or
		}
		if r != addr.None {
			out = append(out, idEntry[addr.DomainID, addr.Rights]{id: a.id, v: r})
		}
	}
	return out
}

// regroup moves the page into a group realizing the desired rights
// vector: group membership = domains with access; rights field = union;
// write-disable for members that may not write (Section 4.1.2).
func (e *pgEngine) regroup(vpn addr.VPN, p *page) error {
	desired := e.desiredVector(p, vpn)

	// No domain may access the page: park it in a fresh memberless group.
	if len(desired) == 0 {
		g, err := e.newGroup()
		if err != nil {
			return err
		}
		e.derived[g] = &derivedGroup{seg: p.seg.ID}
		e.movePage(vpn, p, g, addr.None)
		return nil
	}

	union := addr.None
	for _, w := range desired {
		union |= w.v
	}
	// Representability check: every desired value must be the union or
	// the union minus write. The walk is ascending, so the error names
	// the lowest offending domain.
	members := make(idSet[addr.DomainID, bool], len(desired))
	for i, w := range desired {
		if w.v != union && w.v != union.WithoutWrite() {
			return fmt.Errorf("%w: page %#x domain %d wants %v, union %v",
				ErrUnrepresentable, uint64(vpn), w.id, w.v, union)
		}
		members[i] = idEntry[addr.DomainID, bool]{id: w.id, v: w.v != union}
	}

	// If the desired vector is exactly the primary group's, return home.
	if e.matchesPrimary(p.seg, desired) {
		e.movePage(vpn, p, p.seg.group, p.seg.groupRights)
		return nil
	}

	sig := e.signature(p.seg.ID, members)
	if g, ok := e.sigIndex[sig]; ok {
		if dg := e.derived[g]; dg != nil && slices.Equal(dg.members, members) {
			e.movePage(vpn, p, g, union)
			return nil
		}
	}
	// Create a derived group and grant it to the members (ascending ID
	// order so the GroupLoad shootdowns enqueue deterministically).
	g, err := e.newGroup()
	if err != nil {
		return err
	}
	for _, m := range members {
		e.grant(e.k.doms.get(m.id), g, m.v)
	}
	e.derived[g] = &derivedGroup{seg: p.seg.ID, sig: sig, members: members}
	e.sigIndex[sig] = g
	e.movePage(vpn, p, g, union)
	return nil
}

// primaryEffective returns the rights a domain attached with r actually
// holds through the primary group's encoding (rights field plus
// write-disable bit).
func (e *pgEngine) primaryEffective(s *Segment, r addr.Rights) addr.Rights {
	field := s.groupRights
	if r == field {
		return field
	}
	if field&addr.Write != 0 && r&addr.Write == 0 {
		return field.WithoutWrite()
	}
	return field
}

// matchesPrimary reports whether the desired vector equals what the
// primary group grants its members: one merge walk of the two ascending
// lists, skipping domains attached with no rights.
func (e *pgEngine) matchesPrimary(s *Segment, desired idSet[addr.DomainID, addr.Rights]) bool {
	j := 0
	for _, a := range s.attached {
		if a.v == addr.None {
			continue
		}
		if j == len(desired) || desired[j].id != a.id || desired[j].v != e.primaryEffective(s, a.v) {
			return false
		}
		j++
	}
	return j == len(desired)
}

// signature names a derived group's segment and member list (already
// ascending), the key pages with identical sharing meet under.
func (e *pgEngine) signature(seg addr.SegmentID, members idSet[addr.DomainID, bool]) string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d:", seg)
	for _, m := range members {
		fmt.Fprintf(&b, "%d", m.id)
		if m.v {
			b.WriteByte('w')
		}
		b.WriteByte(',')
	}
	return b.String()
}

// movePage updates the kernel's page record and the resident TLB entry.
func (e *pgEngine) movePage(vpn addr.VPN, p *page, g addr.GroupID, rights addr.Rights) {
	if p.group == g && p.groupRights == rights {
		return
	}
	old := p.group
	if old != g {
		e.hPageMoves.Inc()
		if dg := e.derived[g]; dg != nil {
			dg.pages++
		}
	}
	p.group = g
	p.groupRights = rights
	e.k.maintainPage(vpn, smp.Request{Kind: smp.GroupUpdate, VPN: vpn, Group: g, Rights: rights})
	// Collect the vacated group after the page is re-homed, so the
	// revocation shootdowns queue behind this page's update.
	if old != g {
		if dg := e.derived[old]; dg != nil && dg.pages > 0 {
			if dg.pages == 1 {
				e.freeDerived(old, dg)
			} else {
				dg.pages--
			}
		}
	}
}

// freeDerived retires derived group g, which no longer holds any page:
// every remaining membership is revoked (so the number cannot match in
// any checker once recycled) and the number returns to the free list.
// This is the group-number garbage collection that keeps a long-lived
// segment's group population proportional to its parked pages, not to
// its history of sharing patterns.
func (e *pgEngine) freeDerived(g addr.GroupID, dg *derivedGroup) {
	e.retire(g, dg)
	e.k.freeGroups = append(e.k.freeGroups, g)
	e.hGCed.Inc()
}

// retire un-indexes derived group g, revokes it from every member in
// stored (ascending ID) order and drops its record.
func (e *pgEngine) retire(g addr.GroupID, dg *derivedGroup) {
	e.unindex(g, dg)
	for _, m := range dg.members {
		if d := e.k.doms.get(m.id); d != nil {
			e.revoke(d, g)
		}
	}
	delete(e.derived, g)
}

func (e *pgEngine) setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error {
	p := e.k.pageRecord(vpn)
	if p == nil {
		return ErrNoAuthority
	}
	return e.regroup(vpn, p)
}

func (e *pgEngine) setSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	// Pages that moved to derived groups have their own vectors; the
	// segment-wide change alters the domain's contribution to each, so
	// they must be re-derived individually.
	e.resyncSegment(s)
	return nil
}

func (e *pgEngine) onUnmap(vpn addr.VPN) {
	e.k.maintainPage(vpn, smp.Request{Kind: smp.Unmap, VPN: vpn})
}

// onDestroySegment tears down the segment's group world. Derived groups
// may still sit in detached domains' group sets (detach revokes only the
// primary group; derived memberships linger until the page re-derives),
// so every live member is revoked first — a recycled group number must
// never be resolvable through a stale membership. Then the primary and
// derived group numbers return to the free list for reuse: this is the
// only point where a group is provably memberless and pageless, which
// makes it the safe recycling point for the architectural namespace.
func (e *pgEngine) onDestroySegment(s *Segment) {
	dead := e.deadScratch[:0]
	for g, dg := range e.derived {
		if dg.seg == s.ID {
			dead = append(dead, g)
		}
	}
	slices.Sort(dead)
	for _, g := range dead {
		e.retire(g, e.derived[g])
	}
	e.k.freeGroups = append(e.k.freeGroups, s.group)
	e.k.freeGroups = append(e.k.freeGroups, dead...)
	e.deadScratch = dead
}

// onDestroyDomain strips the dying domain out of the page-group world in
// one ascending walk of its group set: each group is withdrawn (local
// checker detach plus GroupRevoke to CPUs and device seats executing on
// its behalf), and a derived group naming it drops the membership and
// its signature index — once the ID is recycled, a membership naming
// the dead incarnation would hand the new domain someone else's
// authority via signature reuse. The set is truncated, not freed, so
// the pooled Domain's next incarnation reuses its capacity.
func (e *pgEngine) onDestroyDomain(d *Domain) {
	for _, ga := range d.groups {
		if dg := e.derived[ga.Group]; dg != nil && dg.members.remove(d.ID) {
			e.unindex(ga.Group, dg)
		}
		e.withdraw(d, ga.Group)
	}
	d.groups = d.groups[:0]
}

// onFork copies the parent's group set to the child — membership is the
// page-group model's protection state, so inheriting the parent's view
// is a per-group bookkeeping copy, not a per-page one. No checker is
// touched: the child executes nowhere yet, and its group set loads on
// its first dispatch exactly like a context switch. Derived memberships
// grow the child with the parent's write-disable bit, un-indexing each
// grown group's creation-time signature.
func (e *pgEngine) onFork(parent, child *Domain) {
	if len(parent.groups) == 0 {
		return
	}
	child.groups = append(child.groups[:0], parent.groups...)
	for _, ga := range parent.groups {
		if dg := e.derived[ga.Group]; dg != nil {
			e.unindex(ga.Group, dg)
			dg.members.set(child.ID, ga.WriteDisable)
		}
	}
	e.hForkCopies.Add(uint64(len(parent.groups)))
}
