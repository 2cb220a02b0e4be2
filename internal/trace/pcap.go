package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/dot11"
)

// This file imports and exports traces in classic libpcap format so
// the evaluation pipeline can run on real captures (e.g. from tcpdump
// or tshark). Three link types are supported:
//
//   - Ethernet (DLT 1): broadcast/multicast UDP datagrams, as captured
//     on the AP's wired side. Rates are not available and default to
//     1 Mb/s (the basic rate broadcast goes out at).
//   - IEEE 802.11 (DLT 105): raw frames from a monitor-mode capture
//     without radiotap. Rates are not available.
//   - Radiotap (DLT 127): monitor-mode captures and this package's
//     exports (WritePCAP, WritePCAPRecords); the radiotap header's Rate
//     field supplies the per-frame PHY rate when present.
//
// Only UDP-padded group-addressed data frames become trace entries;
// everything else (beacons, ACKs, unicast, non-UDP) is skipped, which
// is exactly the filtering the paper applies to its captures. A record
// cut at the capture's snaplen keeps its frame while it still holds the
// whole UDP header: dot11.DstUDPPort and dot11.IPv4DstUDPPort read the
// port from the headers alone.

// pcap file format constants.
const (
	pcapMagicMicros = 0xa1b2c3d4
	pcapMagicNanos  = 0xa1b23c4d

	// DLTEthernet, DLT80211 and DLTRadiotap are the supported link
	// types.
	DLTEthernet uint32 = 1
	DLT80211    uint32 = 105
	DLTRadiotap uint32 = 127
)

// pcapGlobalHeaderLen and pcapRecordHeaderLen are fixed sizes.
const (
	pcapGlobalHeaderLen = 24
	pcapRecordHeaderLen = 16
)

// PCAPOptions tunes the importer.
type PCAPOptions struct {
	// Name labels the resulting trace.
	Name string
	// DefaultRate is used when the capture carries no rate information
	// (Ethernet captures, radiotap without a Rate field). Zero means
	// 1 Mb/s.
	DefaultRate dot11.Rate
}

// ReadPCAP parses a classic pcap capture into a Trace.
func ReadPCAP(r io.Reader, opts PCAPOptions) (*Trace, error) {
	if opts.DefaultRate <= 0 {
		opts.DefaultRate = dot11.Rate1Mbps
	}
	var gh [pcapGlobalHeaderLen]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("trace: reading pcap global header: %w", err)
	}
	var order binary.ByteOrder
	unit := time.Microsecond // of the sub-second timestamp field
	switch magic := binary.LittleEndian.Uint32(gh[:4]); magic {
	case pcapMagicMicros:
		order = binary.LittleEndian
	case pcapMagicNanos:
		order, unit = binary.LittleEndian, time.Nanosecond
	default:
		switch magic := binary.BigEndian.Uint32(gh[:4]); magic {
		case pcapMagicMicros:
			order = binary.BigEndian
		case pcapMagicNanos:
			order, unit = binary.BigEndian, time.Nanosecond
		default:
			return nil, fmt.Errorf("trace: not a pcap file (magic %#08x)", magic)
		}
	}
	linkType := order.Uint32(gh[20:24])
	switch linkType {
	case DLTEthernet, DLT80211, DLTRadiotap:
	default:
		return nil, fmt.Errorf("trace: unsupported pcap link type %d", linkType)
	}

	tr := &Trace{Name: opts.Name}
	var first time.Duration
	haveFirst := false
	var rec [pcapRecordHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: reading pcap record header: %w", err)
		}
		sec := order.Uint32(rec[0:4])
		sub := order.Uint32(rec[4:8])
		capLen := order.Uint32(rec[8:12])
		origLen := order.Uint32(rec[12:16])
		if capLen > 1<<20 || origLen > 1<<20 {
			return nil, fmt.Errorf("trace: implausible pcap capture length %d (original %d)", capLen, origLen)
		}
		if time.Duration(sub)*unit >= time.Second {
			return nil, fmt.Errorf("trace: pcap sub-second timestamp %d out of range", sub)
		}
		pkt := make([]byte, capLen)
		if _, err := io.ReadFull(r, pkt); err != nil {
			return nil, fmt.Errorf("trace: reading pcap packet body: %w", err)
		}
		f, ok := decodePacket(linkType, pkt, int(origLen), opts.DefaultRate)
		if !ok {
			continue
		}
		if err := checkLength(f.Length); err != nil {
			return nil, err
		}
		ts := time.Duration(sec)*time.Second + time.Duration(sub)*unit
		if !haveFirst {
			haveFirst = true
			// Real captures carry epoch timestamps; rebase those to the
			// first broadcast frame. Captures that already use small
			// relative offsets (e.g. WritePCAP exports) keep them, so a
			// write/read cycle is lossless.
			if ts > 24*time.Hour {
				first = ts
			}
		}
		f.At = ts - first
		tr.Frames = append(tr.Frames, f)
	}
	tr.Sort()
	if n := len(tr.Frames); n > 0 {
		tr.Duration = tr.Frames[n-1].At + time.Second
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// decodePacket extracts a broadcast UDP frame from one captured packet.
func decodePacket(linkType uint32, pkt []byte, origLen int, defRate dot11.Rate) (Frame, bool) {
	switch linkType {
	case DLTEthernet:
		return decodeEthernet(pkt, origLen, defRate)
	case DLT80211:
		return decode80211(pkt, origLen, defRate)
	case DLTRadiotap:
		hdrLen, rate, fcs, ok := parseRadiotap(pkt)
		if !ok {
			return Frame{}, false
		}
		if rate <= 0 {
			rate = defRate
		}
		if fcs {
			// The frame ends before its 4-byte FCS: the medium adds the
			// FCS to every frame's airtime itself.
			end := max(origLen, len(pkt)) - dot11.FCSLen
			if end < hdrLen {
				return Frame{}, false
			}
			pkt, origLen = pkt[:min(len(pkt), end)], end
		}
		return decode80211(pkt[hdrLen:], origLen-hdrLen, rate)
	}
	return Frame{}, false
}

// decodeEthernet extracts broadcast/multicast UDP over IPv4.
func decodeEthernet(pkt []byte, origLen int, rate dot11.Rate) (Frame, bool) {
	const ethHdrLen = 14
	if len(pkt) < ethHdrLen {
		return Frame{}, false
	}
	var dst dot11.MACAddr
	copy(dst[:], pkt[0:6])
	if !dst.IsMulticast() {
		return Frame{}, false
	}
	if et := uint16(pkt[12])<<8 | uint16(pkt[13]); et != 0x0800 {
		return Frame{}, false
	}
	port, err := dot11.IPv4DstUDPPort(pkt[ethHdrLen:])
	if err != nil {
		return Frame{}, false
	}
	// Express the length as the equivalent 802.11 frame: swap the
	// Ethernet header for MAC header + LLC/SNAP.
	length := max(origLen, len(pkt)) - ethHdrLen + dot11.MACHeaderLen + dot11.LLCSNAPLen
	return Frame{Length: length, Rate: rate, DstPort: port}, true
}

// decode80211 extracts group-addressed UDP data frames.
func decode80211(pkt []byte, origLen int, rate dot11.Rate) (Frame, bool) {
	var df dot11.DataFrame
	if err := dot11.ReadDataFrame(pkt, &df); err != nil || !df.Header.Addr1.IsMulticast() {
		return Frame{}, false
	}
	port, err := dot11.DstUDPPort(df.Payload)
	if err != nil {
		return Frame{}, false
	}
	if origLen < len(pkt) {
		origLen = len(pkt)
	}
	return Frame{
		Length: origLen, Rate: rate, DstPort: port,
		MoreData: df.Header.FC.MoreData,
	}, true
}

// radiotap field sizes and alignments for present bits 0..13, enough
// to locate the Rate field (bit 2). See radiotap.org.
var radiotapFields = []struct{ size, align int }{
	{8, 8}, // 0 TSFT
	{1, 1}, // 1 Flags
	{1, 1}, // 2 Rate
	{4, 2}, // 3 Channel (freq + flags)
	{2, 2}, // 4 FHSS
	{1, 1}, // 5 dBm antenna signal
	{1, 1}, // 6 dBm antenna noise
	{2, 2}, // 7 lock quality
	{2, 2}, // 8 TX attenuation
	{2, 2}, // 9 dB TX attenuation
	{1, 1}, // 10 dBm TX power
	{1, 1}, // 11 antenna
	{1, 1}, // 12 dB antenna signal
	{1, 1}, // 13 dB antenna noise
}

// radiotapFlagFCS is the Flags field's bit for a frame that carries
// its FCS at the end.
const radiotapFlagFCS = 0x10

// parseRadiotap returns the radiotap header length, the PHY rate (0
// when absent) and whether the Flags field says the frame ends in its
// FCS. It handles chained present words.
func parseRadiotap(pkt []byte) (hdrLen int, rate dot11.Rate, fcs, ok bool) {
	if len(pkt) < 8 || pkt[0] != 0 {
		return 0, 0, false, false
	}
	hdrLen = int(binary.LittleEndian.Uint16(pkt[2:4]))
	if hdrLen < 8 || hdrLen > len(pkt) {
		return 0, 0, false, false
	}
	// Collect present words (bit 31 chains to another word).
	present := []uint32{binary.LittleEndian.Uint32(pkt[4:8])}
	off := 8
	for present[len(present)-1]&(1<<31) != 0 {
		if off+4 > hdrLen {
			return 0, 0, false, false
		}
		present = append(present, binary.LittleEndian.Uint32(pkt[off:off+4]))
		off += 4
	}
	// Walk the first present word's fields up to the Rate bit. Fields
	// beyond our table stop the walk (we only need Flags, bit 1, and
	// Rate, bit 2).
	p := present[0]
	for bit := 0; bit < len(radiotapFields); bit++ {
		if p&(1<<uint(bit)) == 0 {
			continue
		}
		f := radiotapFields[bit]
		if rem := off % f.align; rem != 0 {
			off += f.align - rem
		}
		if off+f.size > hdrLen {
			return 0, 0, false, false
		}
		switch bit {
		case 1:
			fcs = pkt[off]&radiotapFlagFCS != 0
		case 2:
			// Rate in units of 500 kb/s.
			return hdrLen, dot11.Rate(float64(pkt[off]) * 500e3), fcs, true
		}
		off += f.size
	}
	return hdrLen, 0, fcs, true
}

// PCAPRecord is one raw captured 802.11 frame for WritePCAPRecords:
// its time, the PHY rate it went out at, and its bytes.
type PCAPRecord struct {
	At   time.Duration
	Rate dot11.Rate
	Raw  []byte
}

// WritePCAPRecords writes raw 802.11 frames (e.g. from the medium's
// monitor tap) as a radiotap (DLT 127) pcap capture with nanosecond
// timestamps, each frame's bytes exactly behind a radiotap header
// carrying its rate, so ReadPCAP turns the capture back into a
// broadcast trace at the rates the frames were sent. A rate the
// radiotap Rate field cannot carry (a multiple of 500 kb/s up to
// 127.5 Mb/s) is left out and reads back as the reader's default
// rate.
func WritePCAPRecords(w io.Writer, recs []PCAPRecord) error {
	var gh [pcapGlobalHeaderLen]byte
	binary.LittleEndian.PutUint32(gh[0:4], pcapMagicNanos)
	binary.LittleEndian.PutUint16(gh[4:6], 2) // version major
	binary.LittleEndian.PutUint16(gh[6:8], 4) // version minor
	binary.LittleEndian.PutUint32(gh[16:20], 65535)
	binary.LittleEndian.PutUint32(gh[20:24], DLTRadiotap)
	if _, err := w.Write(gh[:]); err != nil {
		return err
	}
	var rec [pcapRecordHeaderLen]byte
	for i := range recs {
		r := &recs[i]
		if r.At < 0 || r.At/time.Second > math.MaxUint32 {
			return fmt.Errorf("trace: record %d at %v outside the pcap timestamp range", i, r.At)
		}
		// Radiotap version 0, length, present word, then the Rate
		// field (present bit 2) in 500 kb/s units when it fits.
		rt := []byte{0, 0, 8, 0, 0, 0, 0, 0}
		if units := math.Round(float64(r.Rate) / 500e3); units >= 1 && units <= 255 && units*500e3 == float64(r.Rate) {
			rt[2], rt[4] = 9, 1<<2
			rt = append(rt, byte(units))
		}
		n := uint32(len(rt) + len(r.Raw))
		binary.LittleEndian.PutUint32(rec[0:4], uint32(r.At/time.Second))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(r.At%time.Second))
		binary.LittleEndian.PutUint32(rec[8:12], n)
		binary.LittleEndian.PutUint32(rec[12:16], n)
		for _, b := range [][]byte{rec[:], rt, r.Raw} {
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePCAP exports the trace as a WritePCAPRecords capture: each
// trace frame becomes a group-addressed UDP data frame encoded by the
// dot11 package, so external tools (wireshark, tshark) can inspect
// generated traces and ReadPCAP reads back the frames as written.
func WritePCAP(w io.Writer, tr *Trace) error {
	src := dot11.MACAddr{0x02, 0x1d, 0xe0, 0xff, 0xff, 0xfe}
	recs := make([]PCAPRecord, len(tr.Frames))
	for i := range tr.Frames {
		f := &tr.Frames[i]
		df := &dot11.DataFrame{
			Header: dot11.MACHeader{
				FC:    dot11.FrameControl{FromDS: true, MoreData: f.MoreData},
				Addr1: dot11.Broadcast, Addr2: src, Addr3: src,
				Seq: uint16(i&0x0fff) << 4,
			},
			Payload: dot11.EncapsulateUDP(f.Datagram()),
		}
		recs[i] = PCAPRecord{At: f.At, Rate: f.Rate, Raw: df.Marshal()}
	}
	return WritePCAPRecords(w, recs)
}
