// Package trace models WiFi broadcast-traffic traces: the sequence of
// UDP-padded broadcast frames an AP transmits, as captured in the
// paper's five real-world scenarios (classroom building, CS department,
// college library "WML", Starbucks store, city public library "WRL").
//
// The paper's traces are private, so this package also provides
// synthetic generators calibrated to the per-scenario traffic volumes
// of Figure 6. The downstream energy model consumes only the tuple
// (arrival time, frame length, data rate, destination port, more-data
// bit), so any real capture converted to the same schema can be
// substituted via the CSV reader, and a libpcap capture is read
// directly by ReadPCAP. A capture cut at a snaplen loses nothing the
// tuple needs: each frame's length comes from the record's original
// length and its port from the headers alone.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dot11"
)

// Frame is one UDP-padded broadcast frame in a trace.
type Frame struct {
	// At is the arrival/transmission start time relative to trace start.
	At time.Duration
	// Length is the full MAC frame length in bytes (header + body).
	Length int
	// Rate is the PHY data rate the frame is sent at.
	Rate dot11.Rate
	// DstPort is the destination UDP port.
	DstPort uint16
	// MoreData reports whether the frame announced further buffered
	// group frames (the d_more bit of Eq. 10).
	MoreData bool
}

// zeroPayload backs the padding of the datagrams Frame.Datagram
// returns. Encapsulation copies the payload into the frame body
// (dot11.EncapsulateUDP), so every datagram can share it.
var zeroPayload [4096]byte

// Datagram returns the broadcast UDP datagram the frame carries: its
// destination port, zero-padded so the encapsulated frame is Length
// bytes long. Padding up to 4 KiB is shared read-only memory, so the
// call does not allocate.
func (f Frame) Datagram() dot11.UDPDatagram {
	d := dot11.UDPDatagram{DstIP: [4]byte{255, 255, 255, 255}, DstPort: f.DstPort}
	n := max(f.Length-dot11.MACHeaderLen-dot11.UDPEncapsLen, 0)
	if n <= len(zeroPayload) {
		d.Payload = zeroPayload[:n]
	} else {
		d.Payload = make([]byte, n)
	}
	return d
}

// Trace is an ordered sequence of broadcast frames plus its duration.
type Trace struct {
	// Name identifies the scenario (e.g. "Classroom").
	Name string
	// Duration is the capture length. Frames all arrive within it.
	Duration time.Duration
	// Frames are sorted by arrival time.
	Frames []Frame
}

// Validate checks trace invariants: a non-negative duration, sorted
// arrivals within [0, Duration], positive lengths and positive finite
// rates.
func (tr *Trace) Validate() error {
	if tr.Duration < 0 {
		return fmt.Errorf("trace %s: negative duration %v", tr.Name, tr.Duration)
	}
	var prev time.Duration
	for i, f := range tr.Frames {
		if f.At < 0 || f.At > tr.Duration {
			return fmt.Errorf("trace %s: frame %d at %v outside [0, %v]", tr.Name, i, f.At, tr.Duration)
		}
		if f.At < prev {
			return fmt.Errorf("trace %s: frame %d at %v before previous frame at %v", tr.Name, i, f.At, prev)
		}
		if f.Length <= 0 {
			return fmt.Errorf("trace %s: frame %d has non-positive length %d", tr.Name, i, f.Length)
		}
		// NaN fails the first comparison and +Inf the second.
		if !(f.Rate > 0 && f.Rate <= math.MaxFloat64) {
			return fmt.Errorf("trace %s: frame %d has rate %v, want positive and finite", tr.Name, i, f.Rate)
		}
		prev = f.At
	}
	return nil
}

// Sort orders frames by arrival time (stable).
func (tr *Trace) Sort() {
	sort.SliceStable(tr.Frames, func(i, j int) bool { return tr.Frames[i].At < tr.Frames[j].At })
}

// FramesPerSecond returns the per-second frame counts over the trace
// duration — the quantity whose CDF Figure 6 plots.
func (tr *Trace) FramesPerSecond() []int {
	secs := int(tr.Duration / time.Second)
	if secs == 0 {
		secs = 1
	}
	counts := make([]int, secs)
	for _, f := range tr.Frames {
		s := int(f.At / time.Second)
		if s >= secs {
			s = secs - 1
		}
		counts[s]++
	}
	return counts
}

// MeanFPS returns the average number of frames per second.
func (tr *Trace) MeanFPS() float64 {
	if tr.Duration <= 0 {
		return 0
	}
	return float64(len(tr.Frames)) / tr.Duration.Seconds()
}

// PortHistogram returns the number of frames per destination port.
func (tr *Trace) PortHistogram() map[uint16]int {
	h := make(map[uint16]int)
	for _, f := range tr.Frames {
		h[f.DstPort]++
	}
	return h
}

// CDF is an empirical cumulative distribution function over float64
// samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// NewCDFInts builds an empirical CDF from integer samples.
func NewCDFInts(samples []int) *CDF {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P[X <= x].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0, 1]).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(q * float64(len(c.sorted)))
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Points returns (x, P[X<=x]) pairs suitable for plotting the CDF curve,
// one point per distinct sample value.
func (c *CDF) Points() (xs, ps []float64) {
	n := len(c.sorted)
	for i := 0; i < n; {
		j := i
		for j < n && c.sorted[j] == c.sorted[i] {
			j++
		}
		xs = append(xs, c.sorted[i])
		ps = append(ps, float64(j)/float64(n))
		i = j
	}
	return xs, ps
}
