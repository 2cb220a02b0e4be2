// Package policy implements the broadcast traffic-management solutions
// the paper compares (Section VI-A1):
//
//   - ReceiveAll: the stock smartphone behaviour — the AP forwards every
//     broadcast frame, the client receives each one and acquires a
//     one-second WiFi wakelock for it.
//   - ClientSide: the INFOCOM'15 driver filter [6] at its lower bound —
//     the client still receives every frame, but useless frames are
//     dropped in the driver and the system re-suspends immediately
//     (zero wakelock), paying extra state transfers instead.
//   - HIDE: the paper's AP-side filter — useless frames never reach the
//     client; only useful frames are received and processed, at the cost
//     of the protocol overhead (UDP Port Messages + BTIM bytes).
//   - Combined: the paper's future-work direction (§VIII) — HIDE's
//     AP-side filtering plus the client-side driver filter as a second
//     line of defence against stale port tables; frames that slip
//     through AP filtering but are in fact useless get a zero wakelock.
//
// A policy turns (trace, usefulness vector) into the received-frame
// sequence the energy model consumes, and declares whether the HIDE
// protocol overhead applies.
package policy

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/trace"
)

// Kind enumerates the built-in policies.
type Kind int

// The compared solutions.
const (
	ReceiveAll Kind = iota
	ClientSide
	HIDE
	Combined
)

// Kinds lists the built-in policies in the paper's presentation order.
var Kinds = []Kind{ReceiveAll, ClientSide, HIDE, Combined}

// String returns the paper's name for the policy.
func (k Kind) String() string {
	switch k {
	case ReceiveAll:
		return "receive-all"
	case ClientSide:
		return "client-side"
	case HIDE:
		return "HIDE"
	case Combined:
		return "HIDE+client-side"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// HasOverhead reports whether the policy incurs the HIDE protocol
// overhead of Eqs. 15-19.
func (k Kind) HasOverhead() bool { return k == HIDE || k == Combined }

// Policy converts a tagged trace into the energy model's input, read
// through AppendArrivals. The built-in policies are its only
// implementations.
type Policy interface {
	// Kind identifies the policy.
	Kind() Kind
	// appendArrivals appends the frames the client's radio receives,
	// with their wakelock durations, to dst.
	appendArrivals(dst []energy.Arrival, tr *trace.Trace, useful []bool) ([]energy.Arrival, error)
}

// AppendArrivals applies p to the trace and its per-frame usefulness,
// appending the frames the client's radio receives, with their
// wakelock durations, to dst — nil, or dst[:0] of a buffer reused
// across evaluation cells — and returning the extended slice.
// len(useful) must equal len(tr.Frames).
func AppendArrivals(dst []energy.Arrival, p Policy, tr *trace.Trace, useful []bool) ([]energy.Arrival, error) {
	return p.appendArrivals(dst, tr, useful)
}

// New returns the built-in policy of the given kind. Combined uses a
// zero staleness fraction; use NewCombined to model stale port tables.
func New(k Kind) (Policy, error) {
	switch k {
	case ReceiveAll:
		return receiveAll{}, nil
	case ClientSide:
		return ClientSidePolicy{}, nil
	case HIDE:
		return hidePolicy{}, nil
	case Combined:
		return CombinedPolicy{}, nil
	default:
		return nil, fmt.Errorf("policy: unknown kind %d", int(k))
	}
}

// checkLen validates the usefulness vector length.
func checkLen(tr *trace.Trace, useful []bool) error {
	if len(useful) != len(tr.Frames) {
		return fmt.Errorf("policy: usefulness vector length %d != trace frames %d", len(useful), len(tr.Frames))
	}
	return nil
}

// convert maps a trace frame to a model arrival with the given wakelock.
func convert(f trace.Frame, wakelock timeDuration) energy.Arrival {
	return energy.Arrival{
		At: f.At, Length: f.Length, Rate: f.Rate,
		MoreData: f.MoreData, Wakelock: wakelock,
	}
}
