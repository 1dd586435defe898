package kernel

import (
	"fmt"

	"repro/internal/addr"
)

// FaultError is the structured form of an access failure: it carries the
// faulting domain, address and access kind alongside the classifying
// sentinel (ErrFaultLoop, ErrProtection, ErrNoAuthority) and, when one
// exists, the underlying cause (an injected failure, a handler's error, a
// paging error). errors.Is matches both the sentinel and the cause chain;
// errors.As extracts the context, which is what makes chaos-campaign
// reports actionable ("domain 3 looping at 0x100003000 on store" rather
// than a bare sentinel).
type FaultError struct {
	Domain addr.DomainID
	VA     addr.VA
	Kind   addr.AccessKind
	// Sentinel classifies the failure (ErrFaultLoop, ErrProtection,
	// ErrNoAuthority); may be nil when only a cause exists.
	Sentinel error
	// Cause is the underlying failure, if any (injected error, handler
	// verdict, allocation failure).
	Cause error
}

// Error implements error.
func (e *FaultError) Error() string {
	head := "kernel: access failed"
	if e.Sentinel != nil {
		head = e.Sentinel.Error()
	}
	msg := fmt.Sprintf("%s: domain %d, %v at %#x", head, e.Domain, e.Kind, uint64(e.VA))
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *FaultError) Unwrap() []error {
	out := make([]error, 0, 2)
	if e.Sentinel != nil {
		out = append(out, e.Sentinel)
	}
	if e.Cause != nil {
		out = append(out, e.Cause)
	}
	return out
}

// NotMappedError is a data access to a page the translation table does
// not map. The hardware can admit such a reference through a stale TLB
// or PLB entry — one whose shootdown never arrived — after the kernel
// dropped the page; the access then has no frame to read or write.
type NotMappedError struct {
	VPN addr.VPN
}

// Error implements error.
func (e *NotMappedError) Error() string {
	return fmt.Sprintf("kernel: page %#x not mapped", uint64(e.VPN))
}

// faultErr builds a FaultError for domain d's access at va.
func faultErr(d *Domain, va addr.VA, kind addr.AccessKind, sentinel, cause error) error {
	return &FaultError{Domain: d.ID, VA: va, Kind: kind, Sentinel: sentinel, Cause: cause}
}
