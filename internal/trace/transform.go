package trace

import (
	"fmt"
	"time"
)

// Transformations for preparing traces: truncating to a prefix and
// time-scaling to change density. Both return fresh traces and leave
// their inputs untouched.

// Truncate returns the prefix of the trace up to d.
func Truncate(tr *Trace, d time.Duration) *Trace {
	if d <= 0 {
		return &Trace{Name: tr.Name, Duration: 0}
	}
	if d >= tr.Duration {
		d = tr.Duration
	}
	out := &Trace{Name: tr.Name, Duration: d}
	for _, f := range tr.Frames {
		if f.At >= d {
			break
		}
		out.Frames = append(out.Frames, f)
	}
	return out
}

// TimeScale stretches (factor > 1) or compresses (factor < 1) the
// trace's time axis, changing its density by 1/factor while keeping
// frame order, lengths, and ports.
func TimeScale(tr *Trace, factor float64) (*Trace, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("trace: non-positive time scale %v", factor)
	}
	out := &Trace{
		Name:     tr.Name,
		Duration: time.Duration(float64(tr.Duration) * factor),
	}
	out.Frames = make([]Frame, len(tr.Frames))
	for i, f := range tr.Frames {
		g := f
		g.At = time.Duration(float64(f.At) * factor)
		out.Frames[i] = g
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
