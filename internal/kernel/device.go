package kernel

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/smp"
)

// Device translation agents (internal/iommu) attach to the kernel as
// first-class protection participants: each device holds an IOTLB
// organized to match the kernel's protection model, occupies a seat
// above the CPU range on the shootdown interconnect, and appears in
// the sharer directory like a CPU — a revocation that reaches the
// domain's CPUs also reaches every device caching its authority. DMA
// transfers run through DeviceReadPage/DeviceWritePage, which pass the
// device's translation + protection check before any byte moves; a
// device that stops acknowledging invalidation volleys is quarantined
// (its DMA channel fenced, in-flight transfers aborted with typed
// iommu errors) and rejoins by bulk IOTLB invalidation.

// DeviceConfig describes one device agent in Config.Devices.
type DeviceConfig struct {
	// Name labels the device in stats and errors; empty defaults to
	// "<kind><index>".
	Name string
	// Kind is the device class (iommu.NIC, DMAEngine, GCScanner).
	Kind iommu.Kind
	// Entries is the IOTLB capacity; zero defaults to 64, negative is
	// rejected by NewChecked.
	Entries int
	// Cluster seats the device on the mesh; must lie within the
	// normalized topology's clusters.
	Cluster int
	// TimeoutScale multiplies the acknowledged protocol's ack timeout
	// and backoff cap for this device (devices drain in-flight DMA
	// before acking). Zero defaults to 4; NewChecked requires the
	// effective scale be at least 1.
	TimeoutScale int
}

// defaultDeviceEntries is the IOTLB capacity used when a DeviceConfig
// leaves Entries zero.
const defaultDeviceEntries = 64

// defaultDeviceTimeoutScale is the ack-timeout multiplier used when a
// DeviceConfig leaves TimeoutScale zero.
const defaultDeviceTimeoutScale = 4

// validateDevices normalizes and validates cfg.Devices against the
// seat budget and topology, returning the filled copy.
func validateDevices(cfg Config) ([]DeviceConfig, error) {
	if len(cfg.Devices) == 0 {
		return nil, nil
	}
	if cfg.CPUs+len(cfg.Devices) > MaxCPUs {
		return nil, &ConfigError{Field: "Devices", Value: len(cfg.Devices),
			Reason: fmt.Sprintf("with %d CPUs exceeds the %d interconnect seats", cfg.CPUs, MaxCPUs)}
	}
	topo := cfg.Topology.Normalize(cfg.CPUs)
	out := make([]DeviceConfig, len(cfg.Devices))
	for i, dc := range cfg.Devices {
		if dc.Entries < 0 {
			return nil, &ConfigError{Field: fmt.Sprintf("Devices[%d].Entries", i),
				Value: dc.Entries, Reason: "must be positive"}
		}
		if dc.Entries == 0 {
			dc.Entries = defaultDeviceEntries
		}
		if dc.TimeoutScale < 0 {
			return nil, &ConfigError{Field: fmt.Sprintf("Devices[%d].TimeoutScale", i),
				Value: dc.TimeoutScale, Reason: "must be at least 1"}
		}
		if dc.TimeoutScale == 0 {
			dc.TimeoutScale = defaultDeviceTimeoutScale
		}
		if dc.Cluster < 0 || dc.Cluster >= topo.Clusters() {
			return nil, &ConfigError{Field: fmt.Sprintf("Devices[%d].Cluster", i),
				Value:  dc.Cluster,
				Reason: fmt.Sprintf("outside the topology's %d clusters", topo.Clusters())}
		}
		if dc.Name == "" {
			dc.Name = fmt.Sprintf("%s%d", dc.Kind, i)
		}
		out[i] = dc
	}
	return out, nil
}

// deviceOrg picks the IOTLB organization matching the protection model:
// the page-group kernel drives AID-tagged device TLBs, every other
// model drives PLB-style (domain, page) IOTLBs.
func deviceOrg(m Model) iommu.Org {
	if m == ModelPageGroup {
		return iommu.OrgPageGroup
	}
	return iommu.OrgDomainPage
}

// attachDevices builds the device agents and seats them on the
// shootdown interconnect (called from NewChecked after the machines
// and shootdown subsystem exist).
func (k *Kernel) attachDevices(devs []DeviceConfig) {
	specs := make([]smp.DeviceSpec, len(devs))
	for i, dc := range devs {
		seat := len(k.machs) + i
		dev := iommu.New(iommu.Config{
			Name:     dc.Name,
			Kind:     dc.Kind,
			Org:      deviceOrg(k.cfg.Model),
			Entries:  dc.Entries,
			Seat:     seat,
			Cluster:  dc.Cluster,
			Geometry: k.geo,
			Costs:    k.costs,
		}, k, &k.ctrs)
		k.devs = append(k.devs, dev)
		k.seats = append(k.seats, dev)
		specs[i] = smp.DeviceSpec{Cluster: dc.Cluster, TimeoutScale: uint64(dc.TimeoutScale)}
	}
	k.shoot.AttachDevices(specs)
}

// NumDevices returns the number of attached device agents.
func (k *Kernel) NumDevices() int { return len(k.devs) }

// Device returns device agent i.
func (k *Kernel) Device(i int) *iommu.Device { return k.devs[i] }

// DeviceSeat returns device i's target index on the interconnect
// (device seats start at NumCPUs).
func (k *Kernel) DeviceSeat(i int) int { return len(k.machs) + i }

// DeviceTrusted reports whether device i holds no missed invalidations
// (the device-seat analog of CPUTrusted).
func (k *Kernel) DeviceTrusted(i int) bool {
	return k.shoot == nil || k.shoot.Trusted(k.DeviceSeat(i))
}

// DeviceHealth returns the shootdown layer's health view of device i.
func (k *Kernel) DeviceHealth(i int) smp.Health {
	if k.shoot == nil {
		return smp.Healthy
	}
	return k.shoot.CPUHealth(k.DeviceSeat(i))
}

// DeviceFenced reports whether device i's DMA channel is fenced
// (quarantined or degraded): transfers abort with iommu.ErrFenced
// until the device rejoins.
func (k *Kernel) DeviceFenced(i int) bool {
	return k.shoot != nil && k.shoot.Fenced(k.DeviceSeat(i))
}

// ProgramDevice reprograms device i's DMA channel to act on behalf of
// domain d: subsequent transfers are checked against d's authority.
// The device conservatively joins d's residency set so revocations of
// d's rights reach it (withdrawn again when a removal shootdown proves
// its IOTLB holds nothing of d, or on rejoin).
func (k *Kernel) ProgramDevice(i int, d *Domain) {
	k.devs[i].SetOnBehalf(d.ID)
	d.cpus.Add(k.DeviceSeat(i))
}

// RejoinDevice readmits an untrusted (quarantined, degraded or stale)
// device: its IOTLB and group set are bulk-invalidated, its directory
// residency withdrawn, queued shootdowns for it discarded as moot, and
// the fence lifted. Like rejoinCPU it charges one trap. Degraded
// devices stay fenced from delivery — for them this is the
// purge-before-reuse path, paid on every reprogram.
func (k *Kernel) RejoinDevice(i int) {
	seat := k.DeviceSeat(i)
	k.purgeSeat(seat)
	if k.shoot != nil {
		k.shoot.DropPending(seat)
		k.shoot.Rejoin(seat)
	}
	k.hDevRejoins.Inc()
	k.cycles.Add(k.costs().Trap)
}

// NoteDeviceInstall implements iommu.OS: device agents record their
// IOTLB installs in the sharer directory under their own seat, so
// domain- and page-keyed shootdowns target them precisely.
func (k *Kernel) NoteDeviceInstall(seat int, d addr.DomainID, vpn addr.VPN) {
	if dom := k.doms.get(d); dom != nil {
		dom.cpus.Add(seat)
	}
	set := k.pageDir[vpn]
	if set == nil {
		set = &smp.CPUSet{}
		k.pageDir[vpn] = set
	}
	set.Add(seat)
}

// deviceCheck runs device i's translation + protection check for one
// DMA reference, resolving IO page faults (unmapped pages are paged in
// or demand-zeroed by the kernel — devices have no user-level fault
// handlers, so protection denials are terminal typed errors).
func (k *Kernel) deviceCheck(i int, vpn addr.VPN, kind addr.AccessKind) error {
	dev := k.devs[i]
	if k.DeviceFenced(i) {
		dev.CountAbort()
		return &iommu.AccessError{
			Device: dev.Name(), Seat: dev.Seat(), Domain: dev.OnBehalf(),
			VPN: vpn, Kind: kind, Err: iommu.ErrFenced,
		}
	}
	for try := 0; try < k.cfg.MaxFaultRetries; try++ {
		_, err := dev.Check(vpn, kind)
		if err == nil {
			return nil
		}
		if errors.Is(err, iommu.ErrUnmapped) {
			// IO page fault: the kernel resolves the translation
			// (page-in or demand-zero) and the device retries the walk.
			if ferr := k.handlePageFault(k.geo.Base(vpn)); ferr != nil {
				return ferr
			}
			continue
		}
		return err
	}
	return fmt.Errorf("%w: device %s DMA at %#x", ErrFaultLoop, dev.Name(), uint64(k.geo.Base(vpn)))
}

// DeviceReadPage DMA-reads the page holding va through device i's
// translation agent: the IOTLB check approves the transfer, then the
// device copies the page from its home memory bank (MemCopyPage plus
// MemHop per mesh hop, charged to the device's clock).
func (k *Kernel) DeviceReadPage(i int, va addr.VA) ([]byte, error) {
	vpn := k.geo.PageNumber(va)
	if err := k.deviceCheck(i, vpn, addr.Load); err != nil {
		return nil, err
	}
	data, err := k.frameData(vpn)
	if err != nil {
		return nil, err
	}
	k.trans.Reference(vpn, false)
	k.devs[i].ChargeDMAPage(k.topo, vpn)
	return append([]byte(nil), data...), nil
}

// DeviceWritePage DMA-writes buf over the page holding va through
// device i's translation agent. The protection check runs before the
// write lands: a revoked device either misses in its IOTLB and is
// denied, or — if an invalidation never reached it — writes through a
// stale entry, which the oracle's device audit reports.
func (k *Kernel) DeviceWritePage(i int, va addr.VA, buf []byte) error {
	vpn := k.geo.PageNumber(va)
	if err := k.deviceCheck(i, vpn, addr.Store); err != nil {
		return err
	}
	data, err := k.frameData(vpn)
	if err != nil {
		return err
	}
	copy(data, buf)
	k.trans.Reference(vpn, true)
	k.devs[i].ChargeDMAPage(k.topo, vpn)
	return nil
}

// DeviceTouch runs a word-granularity DMA beat at va through device
// i's check (no data movement helper; scanners that only need the
// protection verdict use it).
func (k *Kernel) DeviceTouch(i int, va addr.VA, kind addr.AccessKind) error {
	vpn := k.geo.PageNumber(va)
	if err := k.deviceCheck(i, vpn, kind); err != nil {
		return err
	}
	k.trans.Reference(vpn, kind == addr.Store)
	k.devs[i].ChargeDMAWord(k.topo, vpn)
	return nil
}
