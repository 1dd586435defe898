package kernel

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/ptable"
)

// Touch issues one memory reference by domain d at va, running the full
// hardware access path and resolving faults: demand-zero and demand-paging
// page faults are handled by the kernel's pager; protection faults are
// delivered to the segment's user-level handler, which typically
// manipulates rights and lets the access retry (the Appel-Li style
// user-level VM primitives the paper's workloads rely on).
func (k *Kernel) Touch(d *Domain, va addr.VA, kind addr.AccessKind) error {
	_, _, err := k.touch(d, va, kind)
	return err
}

// touch is Touch returning the translation entry of the referenced page,
// whose reference (and, for a store, dirty) bit it set in the same table
// probe. mapped is false when the hardware admitted the reference
// through a stale entry after the kernel table dropped the page (a
// shootdown that never arrived): the access succeeds, but there is no
// frame behind it.
func (k *Kernel) touch(d *Domain, va addr.VA, kind addr.AccessKind) (pte ptable.PTE, mapped bool, err error) {
	// NewChecked guarantees MaxFaultRetries >= 1, so the loop always runs
	// and its first Switch puts d on the CPU.
	for try := 0; try < k.cfg.MaxFaultRetries; try++ {
		k.Switch(d) // a fault handler may have switched domains
		if k.injectSpuriousTrap(d, va, kind) {
			// Injected glitch: the hardware trapped although rights are
			// fine. Charge the trap and deliver it like a real fault;
			// idempotent handlers re-grant and the access retries.
			k.cycles.Add(k.costs().Trap)
			if err := k.handleProtFault(d, va, kind); err != nil {
				return pte, false, err
			}
			continue
		}
		out := k.mach.Access(va, kind)
		switch out.Fault {
		case cpu.FaultNone:
			pte, mapped = k.trans.Reference(k.geo.PageNumber(va), kind == addr.Store)
			return pte, mapped, nil
		case cpu.FaultPageUnmapped:
			if k.Mapped(k.geo.PageNumber(va)) {
				// The page has a translation; the "unmapped" fault came
				// from a per-space view with no record for this domain
				// (ModelConventional): a protection matter, not paging.
				if err := k.handleProtFault(d, va, kind); err != nil {
					return pte, false, err
				}
				break
			}
			if err := k.handlePageFault(va); err != nil {
				return pte, false, faultErr(d, va, kind, nil, err)
			}
		case cpu.FaultProtection:
			if err := k.handleProtFault(d, va, kind); err != nil {
				return pte, false, err
			}
		case cpu.FaultNoAuthority:
			return pte, false, faultErr(d, va, kind, ErrNoAuthority, nil)
		}
	}
	return pte, false, faultErr(d, va, kind, ErrFaultLoop, nil)
}

// handlePageFault resolves a missing translation: pages that were paged
// out come back from the backing store; pages never touched are
// demand-zero allocated. Addresses outside all segments are errors.
func (k *Kernel) handlePageFault(va addr.VA) error {
	vpn := k.geo.PageNumber(va)
	p := k.pageRecord(vpn)
	if p == nil {
		return fmt.Errorf("%w: page fault at %#x", ErrNoAuthority, uint64(va))
	}
	k.hPageFaults.Inc()
	if p.onDisk {
		return k.PageIn(vpn)
	}
	// Demand-zero: first touch of a fresh segment page.
	k.hZeroFills.Inc()
	k.cycles.Add(k.costs().MemCopyPage)
	return k.mapFresh(vpn)
}

// mapFresh allocates and maps a zeroed frame for vpn, letting the page
// daemon evict under memory pressure when enabled.
func (k *Kernel) mapFresh(vpn addr.VPN) error {
	if err := k.injectFrameAlloc(vpn); err != nil {
		return fmt.Errorf("kernel: page fault at %#x: %w", uint64(k.geo.Base(vpn)), err)
	}
	pfn, err := k.memory.Alloc()
	if err != nil && k.cfg.AutoEvict {
		if evErr := k.evictOne(vpn); evErr == nil {
			pfn, err = k.memory.Alloc()
		}
	}
	if err != nil {
		return fmt.Errorf("kernel: page fault at %#x: %w", uint64(k.geo.Base(vpn)), err)
	}
	if err := k.trans.Map(vpn, pfn); err != nil {
		if ferr := k.memory.Free(pfn); ferr != nil {
			return ferr
		}
		return err
	}
	k.residentFIFO = append(k.residentFIFO, vpn)
	return nil
}

// evictOne pages out the oldest resident page other than except.
func (k *Kernel) evictOne(except addr.VPN) error {
	for len(k.residentFIFO) > 0 {
		victim := k.residentFIFO[0]
		k.residentFIFO = k.residentFIFO[1:]
		if victim == except || !k.Mapped(victim) {
			continue
		}
		k.hAutoEvictions.Inc()
		return k.PageOut(victim)
	}
	return fmt.Errorf("kernel: nothing evictable")
}

// handleProtFault dispatches a protection fault to the segment's handler.
func (k *Kernel) handleProtFault(d *Domain, va addr.VA, kind addr.AccessKind) error {
	k.hProtFaults.Inc()
	s := k.FindSegment(va)
	if s == nil {
		return faultErr(d, va, kind, ErrNoAuthority, nil)
	}
	if s.handler == nil {
		return faultErr(d, va, kind, ErrProtection,
			fmt.Errorf("segment %q has no handler", s.Name))
	}
	k.hHandlerUpcalls.Inc()
	// Delivering the fault to a user-level handler costs a trap (the
	// machine already charged the hardware fault itself).
	k.cycles.Add(k.costs().Trap)
	f := Fault{K: k, Domain: d, VA: va, Kind: kind, Segment: s}
	if err := k.injectHandlerError(f); err != nil {
		return faultErr(d, va, kind, ErrProtection, err)
	}
	if err := s.handler(f); err != nil {
		return faultErr(d, va, kind, ErrProtection, err)
	}
	return nil
}

// --- Functional data access ---
// The machine approves accesses and accounts costs; actual bytes live in
// physical memory and move here.

// frameData returns the physical bytes behind vpn. The page must be
// mapped.
func (k *Kernel) frameData(vpn addr.VPN) ([]byte, error) {
	pte, ok := k.trans.Lookup(vpn)
	if !ok {
		return nil, &NotMappedError{VPN: vpn}
	}
	return k.memory.Data(pte.PFN), nil
}

// touchData is touch for the data paths: it returns the bytes of the
// referenced page, taken from the entry the reference probe returned,
// or a *NotMappedError when the hardware admitted the access to a page
// the kernel no longer maps.
func (k *Kernel) touchData(d *Domain, va addr.VA, kind addr.AccessKind) ([]byte, error) {
	pte, mapped, err := k.touch(d, va, kind)
	if err != nil {
		return nil, err
	}
	if !mapped {
		return nil, &NotMappedError{VPN: k.geo.PageNumber(va)}
	}
	return k.memory.Data(pte.PFN), nil
}

// Load performs a protection-checked 64-bit load at va (must be 8-byte
// aligned within a page).
func (k *Kernel) Load(d *Domain, va addr.VA) (uint64, error) {
	data, err := k.touchData(d, va, addr.Load)
	if err != nil {
		return 0, err
	}
	off := k.geo.Offset(va)
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(data[off+i]) << (8 * i)
	}
	return v, nil
}

// Store performs a protection-checked 64-bit store at va.
func (k *Kernel) Store(d *Domain, va addr.VA, v uint64) error {
	data, err := k.touchData(d, va, addr.Store)
	if err != nil {
		return err
	}
	off := k.geo.Offset(va)
	for i := uint64(0); i < 8; i++ {
		data[off+i] = byte(v >> (8 * i))
	}
	return nil
}

// ReadPage copies out the contents of the page holding va after a
// protection-checked load of its first byte. Used by servers (pagers,
// checkpointers) that process whole pages.
func (k *Kernel) ReadPage(d *Domain, va addr.VA) ([]byte, error) {
	data, err := k.touchData(d, k.geo.Base(k.geo.PageNumber(va)), addr.Load)
	if err != nil {
		return nil, err
	}
	k.cycles.Add(k.costs().MemCopyPage)
	return append([]byte(nil), data...), nil
}

// WritePage overwrites the page holding va with buf after a
// protection-checked store.
func (k *Kernel) WritePage(d *Domain, va addr.VA, buf []byte) error {
	data, err := k.touchData(d, k.geo.Base(k.geo.PageNumber(va)), addr.Store)
	if err != nil {
		return err
	}
	copy(data, buf)
	k.cycles.Add(k.costs().MemCopyPage)
	return nil
}

// KernelReadPage copies out a page's contents in kernel mode (no domain
// protection check): the path used by coherence agents and pagers that
// act below the protection layer. Unmapped pages are demand-zeroed first.
func (k *Kernel) KernelReadPage(vpn addr.VPN) ([]byte, error) {
	data, err := k.KernelPeekPage(vpn)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// KernelPeekPage is KernelReadPage without the host-side copy: the
// returned slice aliases physical memory and is valid only until this
// kernel next mutates the page or reuses its frame. The simulated page
// copy is still charged — the modeled agent copies the bytes; the host
// merely avoids materializing a second buffer. Callers that retain or
// mutate the data must use KernelReadPage.
func (k *Kernel) KernelPeekPage(vpn addr.VPN) ([]byte, error) {
	if !k.Mapped(vpn) {
		if k.pageRecord(vpn) == nil {
			return nil, fmt.Errorf("%w: kernel read of %#x", ErrNoAuthority, uint64(vpn))
		}
		if err := k.mapFresh(vpn); err != nil {
			return nil, err
		}
	}
	data, err := k.frameData(vpn)
	if err != nil {
		return nil, err
	}
	k.cycles.Add(k.costs().MemCopyPage)
	return data, nil
}

// KernelWritePage overwrites a page's contents in kernel mode, mapping it
// if necessary.
func (k *Kernel) KernelWritePage(vpn addr.VPN, buf []byte) error {
	if !k.Mapped(vpn) {
		if k.pageRecord(vpn) == nil {
			return fmt.Errorf("%w: kernel write of %#x", ErrNoAuthority, uint64(vpn))
		}
		if err := k.mapFresh(vpn); err != nil {
			return err
		}
	}
	data, err := k.frameData(vpn)
	if err != nil {
		return err
	}
	copy(data, buf)
	k.cycles.Add(k.costs().MemCopyPage)
	return nil
}

// --- Paging (Section 4.1.3) ---

// Pager is the backing-store policy behind PageOut/PageIn. The default
// pager writes pages to the simulated disk; the compression paging
// workload (Appel & Li, Table 1 rows 13-14) substitutes a compressed
// in-memory store.
type Pager interface {
	// Out stores the page's contents, charging its own costs to the
	// kernel as appropriate.
	Out(vpn addr.VPN, data []byte) error
	// In retrieves (and releases) the stored contents of vpn.
	In(vpn addr.VPN) ([]byte, error)
}

// diskPager is the default Pager: the simulated disk.
type diskPager struct{ k *Kernel }

func (p diskPager) Out(vpn addr.VPN, data []byte) error {
	p.k.disk.Write(uint64(vpn), data)
	p.k.cycles.Add(p.k.costs().DiskWrite)
	return nil
}

func (p diskPager) In(vpn addr.VPN) ([]byte, error) {
	// Peek: PageIn copies the bytes into the frame immediately.
	data, err := p.k.disk.Peek(uint64(vpn))
	if err != nil {
		return nil, err
	}
	p.k.cycles.Add(p.k.costs().DiskRead)
	return data, nil
}

// SetPager replaces the paging backend. A nil pager restores the disk.
func (k *Kernel) SetPager(p Pager) { k.pager = p }

func (k *Kernel) activePager() Pager {
	if k.pager != nil {
		return k.pager
	}
	return diskPager{k: k}
}

// PageOut moves the page to the backing store and unmaps it: save the
// contents, invalidate the TLB entry, flush the page's cache lines, free
// the frame. Protection structures need no scan: under domain-page, stale
// PLB entries age out and accesses fault on the missing translation;
// under page-group the TLB entry is gone.
func (k *Kernel) PageOut(vpn addr.VPN) error {
	p := k.pageRecord(vpn)
	if p == nil {
		return fmt.Errorf("%w: page-out of %#x", ErrNoAuthority, uint64(vpn))
	}
	pte, ok := k.trans.Lookup(vpn)
	if !ok {
		return fmt.Errorf("kernel: page-out of unmapped page %#x", uint64(vpn))
	}
	// Injected backing-store failures fire before any state changes: a
	// failed page-out leaves the page resident and consistent.
	if err := k.injectPageOut(vpn); err != nil {
		return fmt.Errorf("kernel: page-out of %#x: %w", uint64(vpn), err)
	}
	if err := k.activePager().Out(vpn, k.memory.Data(pte.PFN)); err != nil {
		return fmt.Errorf("kernel: page-out of %#x: %w", uint64(vpn), err)
	}
	k.engine.onUnmap(vpn)
	k.flushIPIs()
	if _, err := k.trans.Unmap(vpn); err != nil {
		return err
	}
	if err := k.memory.Free(pte.PFN); err != nil {
		return err
	}
	p.onDisk = true
	k.hPageouts.Inc()
	return nil
}

// PageIn brings a paged-out page back: allocate a frame, map it, read the
// contents from the backing store.
func (k *Kernel) PageIn(vpn addr.VPN) error {
	p := k.pageRecord(vpn)
	if p == nil || !p.onDisk {
		return fmt.Errorf("kernel: page-in of %#x: not on disk", uint64(vpn))
	}
	// Injected backing-store failures fire before the frame is allocated,
	// so the page stays on disk and a later retry can succeed.
	if err := k.injectPageIn(vpn); err != nil {
		return fmt.Errorf("kernel: page-in of %#x: %w", uint64(vpn), err)
	}
	if err := k.mapFresh(vpn); err != nil {
		return err
	}
	data, err := k.activePager().In(vpn)
	if err != nil {
		// Unwind the fresh mapping: leaving a zeroed frame mapped while
		// the real contents sit on disk would be silent corruption. The
		// page stays on disk; a retry after the store recovers can page
		// it back in.
		if pte, uerr := k.trans.Unmap(vpn); uerr == nil {
			if ferr := k.memory.Free(pte.PFN); ferr != nil {
				return ferr
			}
		}
		return fmt.Errorf("kernel: page-in of %#x: %w", uint64(vpn), err)
	}
	pte, _ := k.trans.Lookup(vpn)
	copy(k.memory.Data(pte.PFN), data)
	p.onDisk = false
	k.hPageins.Inc()
	return nil
}

// Unmap destroys the page's translation without saving its contents
// (used when discarding pages, e.g. GC from-space reclamation).
func (k *Kernel) Unmap(vpn addr.VPN) error {
	pte, ok := k.trans.Lookup(vpn)
	if !ok {
		return fmt.Errorf("kernel: unmap of unmapped page %#x", uint64(vpn))
	}
	k.engine.onUnmap(vpn)
	k.flushIPIs()
	if _, err := k.trans.Unmap(vpn); err != nil {
		return err
	}
	if err := k.memory.Free(pte.PFN); err != nil {
		return err
	}
	k.hUnmaps.Inc()
	return nil
}

// Mapped reports whether the page currently has a translation.
func (k *Kernel) Mapped(vpn addr.VPN) bool {
	_, ok := k.trans.Lookup(vpn)
	return ok
}

// Dirty reports whether the page's dirty bit is set in the translation
// table.
func (k *Kernel) Dirty(vpn addr.VPN) bool {
	pte, ok := k.trans.Lookup(vpn)
	return ok && pte.Dirty
}

// ClearDirty clears the page's dirty bit (incremental checkpointing and
// pagers use it to track modifications between scans), returning the
// prior value.
func (k *Kernel) ClearDirty(vpn addr.VPN) bool { return k.trans.ClearDirty(vpn) }

// Call performs a portal (RPC) invocation: switch to the server domain,
// run the server's work, switch back — the cross-domain control transfer
// whose cost Section 4.1.4 compares across models.
func (k *Kernel) Call(client, server *Domain, work func() error) error {
	k.Switch(server)
	k.hRPCCalls.Inc()
	var err error
	if work != nil {
		err = work()
	}
	k.Switch(client)
	return err
}
