package dot11

import (
	"fmt"
	"time"
)

// Rate is a PHY data rate in bits per second.
type Rate float64

// Standard 802.11b rates. The paper's evaluation sends UDP Port
// Messages at the lowest rate (1 Mb/s) and uses 11 Mb/s channel rate
// for the capacity analysis (Table II).
const (
	Rate1Mbps  Rate = 1e6
	Rate2Mbps  Rate = 2e6
	Rate55Mbps Rate = 5.5e6
	Rate11Mbps Rate = 11e6
)

// String formats the rate in Mb/s.
func (r Rate) String() string { return fmt.Sprintf("%gMb/s", float64(r)/1e6) }

// BasicRate is the BSS basic rate. The AP's beacons, association
// responses, ACKs, disassociations and PS-Poll releases go out at it,
// and so does every frame a station sends: UDP Port Messages,
// (re)association requests, disassociations and PS-Polls. The paper
// sends port messages at the lowest rate. Group data frames keep the
// rate they were enqueued with.
const BasicRate = Rate1Mbps

// The 802.11b channel timing of Table II that the emulated channel
// runs on.
const (
	// PLCPBits is the PLCP preamble + header length, sent ahead of
	// every frame at PLCPRate.
	PLCPBits = 192
	// PLCPRate is the rate the PLCP preamble and header go out at.
	PLCPRate = Rate1Mbps
	// DIFS is the gap a transmission leaves after a busy channel.
	DIFS = 50 * time.Microsecond
	// PropagationDelay is the one-way propagation delay.
	PropagationDelay = time.Microsecond
)

// FrameAirtime returns the time on air for a frame of frameBytes bytes
// (MAC header + body + FCS) sent at rate: the PLCP preamble/header at
// PLCPRate plus the MAC portion at the payload rate.
func FrameAirtime(frameBytes int, rate Rate) time.Duration {
	return bitsDuration(PLCPBits, PLCPRate) + bitsDuration(8*frameBytes, rate)
}

// bitsDuration returns the transmission time of n bits at rate r.
func bitsDuration(n int, r Rate) time.Duration {
	if r <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(r) * float64(time.Second))
}

// TU is the 802.11 time unit used for beacon intervals.
const TU = 1024 * time.Microsecond

// DefaultBeaconInterval is the conventional 100 TU beacon interval
// (102.4 ms).
const DefaultBeaconInterval = 100 * TU
