package core

import (
	"io"
	"time"

	"repro/internal/dot11"
	"repro/internal/trace"
)

// Capture records every frame on the medium — a virtual monitor-mode
// interface. WritePCAP exports the capture so external tools
// (wireshark/tshark) can inspect a simulation run, and ReadPCAP turns
// it back into a broadcast trace, closing the loop:
// generate → simulate → capture → re-analyze.
type Capture struct {
	records []trace.PCAPRecord
}

// StartCapture starts recording every frame on the medium. A capture
// and a Monitor (ServeMonitor) share the network's one medium tap, so
// a served run can be captured too.
func (n *Network) StartCapture() *Capture {
	n.capture = &Capture{}
	n.Medium.SetTap(n.tap)
	return n.capture
}

// tap is the medium's monitor callback once a capture or a Monitor is
// in use (until then the medium has none): it records the frame and
// streams it to the monitor's taps.
func (n *Network) tap(raw []byte, rate dot11.Rate, at time.Duration) {
	if c := n.capture; c != nil {
		c.records = append(c.records, trace.PCAPRecord{
			At:   at,
			Rate: rate,
			Raw:  append([]byte(nil), raw...),
		})
	}
	if m := n.monitor; m != nil {
		m.Server.Publish(raw, rate, at)
	}
}

// Frames returns the number of captured frames.
func (c *Capture) Frames() int { return len(c.records) }

// WritePCAP exports the capture as a radiotap pcap file with
// nanosecond timestamps, each frame at the rate it went out at
// (trace.WritePCAPRecords).
func (c *Capture) WritePCAP(w io.Writer) error {
	return trace.WritePCAPRecords(w, c.records)
}
