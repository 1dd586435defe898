package oracle

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/plb"
	"repro/internal/tlb"
)

// Destroy sweep: after DestroyDomain returns, no structure in the whole
// machine may hold one byte of authority for the dead ID — the property
// that makes ID recycling sound. The sweep enumerates every place
// authority can hide and reports anything naming the ID:
//
//   - kernel tables: the domain must not be live, and no segment may
//     still list it as attached;
//   - CPU hardware: PLB entries keyed by the domain, ASID-TLB entries
//     tagged with its address space, and — on a machine still executing
//     the dead ID — resident checker groups (a destroyed domain's group
//     set is empty, so anything resident is stale authority);
//   - device agents: IOTLB entries keyed by the domain, and the group
//     membership cache of a device still programmed on its behalf.
//
// Untrusted CPUs and devices are exempt exactly as in Violations: they
// are fenced, their state is dormant, and rejoin bulk-invalidates them.

// DestroyViolations sweeps kernel and hardware state for residual
// authority of the destroyed domain id (nil when clean).
func DestroyViolations(k *kernel.Kernel, id addr.DomainID) []Violation {
	var out []Violation
	if k.DomainLive(id) {
		out = append(out, Violation{
			Where: "destroy", Domain: id,
			Detail: "domain still live in the kernel's domain table",
		})
	}
	for _, s := range k.Segments() {
		if s.HasAttached(id) {
			out = append(out, Violation{
				Where: "destroy", Domain: id,
				Detail: fmt.Sprintf("segment %q still lists the domain as attached", s.Name),
			})
		}
	}
	out = append(out, destroyCPUViolations(k, id)...)
	out = append(out, destroyDeviceViolations(k, id)...)
	return out
}

// destroyCPUViolations scans every trusted CPU's hardware for entries
// naming the dead domain.
func destroyCPUViolations(k *kernel.Kernel, id addr.DomainID) []Violation {
	var out []Violation
	for i := 0; i < k.NumCPUs(); i++ {
		if !k.CPUTrusted(i) {
			continue
		}
		switch {
		case k.PLBMachineAt(i) != nil:
			m := k.PLBMachineAt(i)
			m.PLB().ForEach(func(key plb.Key, r addr.Rights) bool {
				if key.Domain == id {
					out = append(out, Violation{
						Where: "destroy", CPU: i, Domain: id, VPN: addr.VPN(key.Page),
						Detail: fmt.Sprintf("PLB entry (shift %d) still holds %v", key.Shift, r),
					})
				}
				return true
			})
		case k.ConvMachineAt(i) != nil:
			m := k.ConvMachineAt(i)
			as := addr.ASID(id)
			m.TLB().ForEach(func(key tlb.ASIDKey, e tlb.ASIDEntry) bool {
				if key.AS == as {
					out = append(out, Violation{
						Where: "destroy", CPU: i, Domain: id, VPN: key.VPN,
						Detail: fmt.Sprintf("ASID-TLB entry still holds %v", e.Rights),
					})
				}
				return true
			})
		case k.PGMachineAt(i) != nil:
			m := k.PGMachineAt(i)
			if m.Domain() != id {
				continue
			}
			m.Checker().ForEach(func(g addr.GroupID, wd bool) bool {
				if g != addr.GlobalGroup {
					out = append(out, Violation{
						Where: "destroy", CPU: i, Domain: id,
						Detail: fmt.Sprintf("checker still holds group %d (writeDisable=%v)", g, wd),
					})
				}
				return true
			})
		}
	}
	return out
}

// destroyDeviceViolations scans every trusted device agent for cached
// authority of the dead domain.
func destroyDeviceViolations(k *kernel.Kernel, id addr.DomainID) []Violation {
	var out []Violation
	for i := 0; i < k.NumDevices(); i++ {
		if !k.DeviceTrusted(i) {
			continue
		}
		dev := k.Device(i)
		seat := k.DeviceSeat(i)
		dev.ForEachDomainPage(func(dom addr.DomainID, vpn addr.VPN, r addr.Rights, _ addr.PFN) bool {
			if dom == id {
				out = append(out, Violation{
					Where: "destroy", Device: dev.Name(), CPU: seat, Domain: id, VPN: vpn,
					Detail: fmt.Sprintf("IOTLB entry still holds %v", r),
				})
			}
			return true
		})
		if dev.OnBehalf() == id {
			dev.ForEachGroup(func(g addr.GroupID, wd bool) bool {
				if g != addr.GlobalGroup {
					out = append(out, Violation{
						Where: "destroy", Device: dev.Name(), CPU: seat, Domain: id,
						Detail: fmt.Sprintf("group cache still holds group %d (writeDisable=%v)", g, wd),
					})
				}
				return true
			})
		}
	}
	return out
}

// VerifyDestroyed runs DestroyViolations and wraps any findings in an
// error — the in-run gate the session-churn experiment calls after
// (sampled) destroys.
func VerifyDestroyed(k *kernel.Kernel, id addr.DomainID) error {
	vs := DestroyViolations(k, id)
	if len(vs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: domain %d: %d residual-authority violation(s):", id, len(vs))
	for i, v := range vs {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(vs)-i)
			break
		}
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return errors.New(b.String())
}
