package kernel

import (
	"fmt"
	"slices"

	"repro/internal/addr"
)

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
	holders := make(map[addr.GroupID][]groupMember)
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
				holders[ga.Group] = append(holders[ga.Group], groupMember{id: d.ID, wd: ga.WriteDisable})
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
