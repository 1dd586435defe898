package kernel

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
)

// TestRemovalShootdownWithdrawsSeat pins the one withdrawal policy
// ApplyShootdown runs after a seat applies a removal request: a CPU or
// device whose structures provably hold nothing of the domain any more
// leaves its residency set, so later shootdowns stop reaching it.
// Domain d touches a page on CPU 1 and a NIC programmed for d writes
// the page by DMA; then CPU 0 detaches d from the segment. The
// detach's removal requests empty CPU 1's PLB or ASID TLB of d, and the
// NIC's IOTLB or group set, under every model — except a page-group
// CPU, whose checker is never scanned and which waits for a bulk
// invalidation instead.
func TestRemovalShootdownWithdrawsSeat(t *testing.T) {
	for _, m := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional, ModelFlush} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := DefaultConfig(m)
			cfg.CPUs = 2
			cfg.Devices = []DeviceConfig{{Name: "nic", Kind: iommu.NIC}}
			k := New(cfg)
			d := k.CreateDomain()
			s := k.CreateSegment(4, SegmentOptions{Name: "shared"})
			k.Attach(d, s, addr.RW)
			k.SetCPU(1)
			if err := k.Touch(d, s.Base(), addr.Load); err != nil {
				t.Fatalf("touch on CPU 1: %v", err)
			}
			k.ProgramDevice(0, d)
			if err := k.DeviceWritePage(0, s.Base(), make([]byte, k.Geometry().PageSize())); err != nil {
				t.Fatalf("DMA write: %v", err)
			}
			k.SetCPU(0)
			nic := k.DeviceSeat(0)
			if !k.DomainResident(d.ID, 1) || !k.DomainResident(d.ID, nic) {
				t.Fatalf("before detach: resident on CPU 1 = %v, on the NIC = %v; want both",
					k.DomainResident(d.ID, 1), k.DomainResident(d.ID, nic))
			}
			if err := k.Detach(d, s); err != nil {
				t.Fatalf("Detach: %v", err)
			}
			if got, want := k.DomainResident(d.ID, 1), m == ModelPageGroup; got != want {
				t.Errorf("after detach: resident on CPU 1 = %v, want %v", got, want)
			}
			if k.DomainResident(d.ID, nic) {
				t.Error("after detach: the NIC stays in d's residency set with nothing of d cached")
			}
		})
	}
}
