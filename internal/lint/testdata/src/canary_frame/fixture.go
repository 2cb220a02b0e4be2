// Package fixture is the framemut canary: a station-style receive
// path that mutates the delivered frame in one place. The canary test
// asserts exactly ONE diagnostic, at the marked line — proving the
// analyzer has teeth and aims them precisely.
package fixture

import (
	"time"

	"repro/internal/dot11"
	"repro/internal/medium"
)

type station struct{ seen int }

// Receive normalizes the frame in place — the exact bug class the
// copy-free fan-out forbids: every later receiver in the fan-out
// would see the "normalized" bytes.
func (s *station) Receive(f *medium.Frame, at time.Duration) {
	s.seen++
	if len(f.Raw) < 24 {
		return
	}
	if f.Kind == dot11.KindData {
		f.Raw[1] &^= 0x10 // CANARY: clears the power-mgmt bit in the shared buffer
	}
}
