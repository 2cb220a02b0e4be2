package energy

import (
	"fmt"
	"time"
)

// StateKind is a host power state in the reconstructed timeline.
type StateKind int

// Host states, in increasing power order.
const (
	// StateSuspended: SOC off, radio still waking for beacons.
	StateSuspended StateKind = iota
	// StateSuspending: the suspend operation is executing (may abort).
	StateSuspending
	// StateResuming: the resume operation is executing.
	StateResuming
	// StateAwake: active or idle under a WiFi wakelock.
	StateAwake
)

// String names the state.
func (k StateKind) String() string {
	switch k {
	case StateSuspended:
		return "suspended"
	case StateSuspending:
		return "suspending"
	case StateResuming:
		return "resuming"
	case StateAwake:
		return "awake"
	default:
		return fmt.Sprintf("state(%d)", int(k))
	}
}

// Interval is one contiguous stretch in a single state.
type Interval struct {
	Kind     StateKind
	From, To time.Duration
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.To - iv.From }

// StateTimeline reconstructs the host's power-state timeline from the
// received-frame sequence. It runs the model kernel's wakelock machine
// (Eqs. 3-5/14, the one behind Compute) one frame at a time and reads
// its transitions: a resume closes the previous episode (awake to the
// old expiry, one suspend operation, then suspended up to the frame)
// and opens a resuming stretch; an aborted suspend shows as suspending
// from the old expiry to the new wakelock start; the end of the window
// closes the last episode. The returned intervals partition
// [0, cfg.Duration] exactly: sorted, contiguous, no gaps.
func StateTimeline(frames []Arrival, cfg Config) ([]Interval, error) {
	cfg = cfg.normalized()
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("energy: non-positive duration %v", cfg.Duration)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].At < frames[i-1].At {
			return nil, fmt.Errorf("energy: frames out of order at index %d", i)
		}
	}
	dev := cfg.Device

	var out []Interval
	add := func(kind StateKind, from, to time.Duration) {
		if from < 0 {
			from = 0
		}
		if to > cfg.Duration {
			to = cfg.Duration
		}
		if to <= from {
			return
		}
		// Merge with the previous interval when the state repeats.
		if n := len(out); n > 0 && out[n-1].Kind == kind && out[n-1].To == from {
			out[n-1].To = to
			return
		}
		out = append(out, Interval{Kind: kind, From: from, To: to})
	}

	var m machine
	var mark time.Duration // where the current awake stretch began
	// closeEpisode emits the tail of an awake episode whose wakelock
	// expired at expiry and whose suspend completed, up to until.
	closeEpisode := func(expiry, until time.Duration) {
		add(StateAwake, mark, expiry)
		add(StateSuspending, expiry, expiry+dev.Tsp)
		add(StateSuspended, expiry+dev.Tsp, until)
	}
	for i := range frames {
		end := [1]time.Duration{frames[i].endTime()}
		prev := m
		m.run(frames[i:i+1], end[:], keepAll[:1], 0, i == 0, &dev)
		switch {
		case m.resumes > prev.resumes: // found suspended: resumed
			if i == 0 {
				add(StateSuspended, 0, end[0])
			} else {
				closeEpisode(prev.expiry, end[0])
			}
			add(StateResuming, end[0], m.tr)
			mark = m.tr
		case m.aborted > prev.aborted: // landed mid-suspend: aborted it
			add(StateAwake, mark, prev.expiry)
			add(StateSuspending, prev.expiry, m.tr)
			mark = m.tr
		}
	}
	if len(frames) > 0 {
		closeEpisode(m.expiry, cfg.Duration)
	} else {
		add(StateSuspended, 0, cfg.Duration)
	}
	return out, nil
}

// TimeInState sums the time spent in a state.
func TimeInState(ivs []Interval, kind StateKind) time.Duration {
	var total time.Duration
	for _, iv := range ivs {
		if iv.Kind == kind {
			total += iv.Duration()
		}
	}
	return total
}
