package kernel

import (
	"fmt"
	"slices"

	"repro/internal/addr"
)

// AuditAttachments checks the two sides of the attachment bookkeeping
// against each other, for every model:
//
//   - every live domain's attached set and every segment's attached set
//     is strictly ascending;
//   - the sides mirror each other: a domain lists a segment exactly
//     when the segment lists the domain, with equal rights;
//   - no segment lists a dead domain, and no domain lists a destroyed
//     segment.
func AuditAttachments(k *Kernel) error {
	var err error
	k.doms.forEach(func(d *Domain) {
		for i, a := range d.attached {
			if err != nil {
				return
			}
			if i > 0 && d.attached[i-1].id >= a.id {
				err = fmt.Errorf("domain %d: attached set not strictly ascending at %d: %v", d.ID, i, d.attached)
				return
			}
			s := k.segments[a.id]
			if s == nil {
				err = fmt.Errorf("domain %d lists destroyed segment %d", d.ID, a.id)
				return
			}
			if r, ok := s.attached.get(d.ID); !ok || r != a.v {
				err = fmt.Errorf("domain %d holds segment %d at %v, but the segment lists %v (present %v)", d.ID, a.id, a.v, r, ok)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for _, s := range k.segOrder {
		for i, a := range s.attached {
			if i > 0 && s.attached[i-1].id >= a.id {
				return fmt.Errorf("segment %d: attached set not strictly ascending at %d: %v", s.ID, i, s.attached)
			}
			d := k.doms.get(a.id)
			if d == nil {
				return fmt.Errorf("segment %d lists dead domain %d", s.ID, a.id)
			}
			if r, ok := d.attached.get(s.ID); !ok || r != a.v {
				return fmt.Errorf("segment %d lists domain %d at %v, but the domain holds %v (present %v)", s.ID, a.id, a.v, r, ok)
			}
		}
	}
	return nil
}

// AuditPageGroups checks the page-group engine's bookkeeping against
// itself, not against hardware (the oracle does that):
//
//   - every live domain's group set is strictly ascending;
//   - every derived group's member list is strictly ascending and names
//     exactly the live domains whose sets hold the group, each with the
//     same write-disable bit;
//   - no group on the free list appears in any domain's set or has a
//     derived record.
//
// It returns nil for kernels of the other models.
func AuditPageGroups(k *Kernel) error {
	e, ok := k.engine.(*pgEngine)
	if !ok {
		return nil
	}
	free := make(map[addr.GroupID]bool, len(k.freeGroups))
	for _, g := range k.freeGroups {
		free[g] = true
	}
	var err error
	holders := make(map[addr.GroupID]idSet[addr.DomainID, bool])
	k.doms.forEach(func(d *Domain) {
		for i, ga := range d.groups {
			if err != nil {
				return
			}
			if i > 0 && d.groups[i-1].Group >= ga.Group {
				err = fmt.Errorf("domain %d: group set not strictly ascending at %d: %v", d.ID, i, d.groups)
				return
			}
			if free[ga.Group] {
				err = fmt.Errorf("domain %d holds group %d, which is on the free list", d.ID, ga.Group)
				return
			}
			if e.derived[ga.Group] != nil {
				// forEach visits domains in ascending ID order.
				holders[ga.Group] = append(holders[ga.Group], idEntry[addr.DomainID, bool]{id: d.ID, v: ga.WriteDisable})
			}
		}
	})
	if err != nil {
		return err
	}
	gs := make([]addr.GroupID, 0, len(e.derived))
	for g := range e.derived {
		gs = append(gs, g)
	}
	slices.Sort(gs)
	for _, g := range gs {
		dg := e.derived[g]
		if free[g] {
			return fmt.Errorf("derived group %d is on the free list", g)
		}
		for i := 1; i < len(dg.members); i++ {
			if dg.members[i-1].id >= dg.members[i].id {
				return fmt.Errorf("derived group %d: members not strictly ascending: %v", g, dg.members)
			}
		}
		if !slices.Equal(dg.members, holders[g]) {
			return fmt.Errorf("derived group %d: members %v, but live holders are %v", g, dg.members, holders[g])
		}
	}
	return nil
}
