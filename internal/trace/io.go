package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/dot11"
)

// This file reads and writes traces as CSV, with header
// "at_us,length,rate_bps,dst_port,more_data", so that real captures
// (e.g. tshark exports) can replace the synthetic generators without
// touching any downstream code. pcap.go reads and writes captures.

// csvHeader is the required column layout.
var csvHeader = []string{"at_us", "length", "rate_bps", "dst_port", "more_data"}

// WriteCSV writes the trace in CSV form. The trace name and duration
// ride in a "#name=...;duration_us=..." comment line before the header,
// so the name may hold anything but a newline.
func WriteCSV(w io.Writer, tr *Trace) error {
	if strings.Contains(tr.Name, "\n") {
		return fmt.Errorf("trace: CSV preamble cannot carry the newline in name %q", tr.Name)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#name=%s;duration_us=%d\n", tr.Name, tr.Duration.Microseconds())
	cw := csv.NewWriter(bw)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	rec := make([]string, 5)
	for _, f := range tr.Frames {
		rec[0] = strconv.FormatInt(f.At.Microseconds(), 10)
		rec[1] = strconv.Itoa(f.Length)
		rec[2] = strconv.FormatFloat(float64(f.Rate), 'f', -1, 64)
		rec[3] = strconv.Itoa(int(f.DstPort))
		rec[4] = strconv.FormatBool(f.MoreData)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	tr := &Trace{}
	first, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV preamble: %w", err)
	}
	first = strings.TrimSuffix(strings.TrimSuffix(first, "\n"), "\r")
	if !strings.HasPrefix(first, "#") {
		return nil, fmt.Errorf("trace: CSV missing #name preamble")
	}
	if rest, ok := strings.CutPrefix(first, "#name="); ok {
		// The name runs to the last duration segment, so it may
		// itself hold spaces and semicolons.
		tr.Name = rest
		if i := strings.LastIndex(rest, csvDurationKey); i >= 0 {
			tr.Name = rest[:i]
			if tr.Duration, err = parseMicros(rest[i+len(csvDurationKey):], "duration_us"); err != nil {
				return nil, err
			}
		}
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = len(csvHeader)
	hdr, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	for i, h := range csvHeader {
		if hdr[i] != h {
			return nil, fmt.Errorf("trace: CSV column %d is %q, want %q", i, hdr[i], h)
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV record: %w", err)
		}
		f, err := parseCSVRecord(rec)
		if err != nil {
			return nil, err
		}
		tr.Frames = append(tr.Frames, f)
	}
	if tr.Duration == 0 && len(tr.Frames) > 0 {
		tr.Duration = tr.Frames[len(tr.Frames)-1].At + time.Second
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// csvDurationKey introduces the duration in the CSV preamble.
const csvDurationKey = ";duration_us="

// parseMicros parses a decimal microsecond count into a Duration,
// rejecting counts the Duration cannot hold instead of letting them
// wrap.
func parseMicros(s, field string) (time.Duration, error) {
	us, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad %s %q: %w", field, s, err)
	}
	const limit = math.MaxInt64 / int64(time.Microsecond)
	if us > limit || us < -limit {
		return 0, fmt.Errorf("trace: %s %d µs outside the representable range", field, us)
	}
	return time.Duration(us) * time.Microsecond, nil
}

// maxFrameLen bounds the frame length a trace file may declare. No
// broadcast frame comes near it: an IPv4 datagram spans at most 64 KiB
// and an 802.11 MPDU under 12 KiB. Replays and WritePCAP build a
// datagram of the declared length.
const maxFrameLen = 1 << 16

// checkLength rejects a frame length longer than maxFrameLen.
func checkLength(n int) error {
	if n > maxFrameLen {
		return fmt.Errorf("trace: frame length %d exceeds %d bytes", n, maxFrameLen)
	}
	return nil
}

// parseCSVRecord converts one CSV record into a Frame.
func parseCSVRecord(rec []string) (Frame, error) {
	var f Frame
	var err error
	if f.At, err = parseMicros(rec[0], "at_us"); err != nil {
		return f, err
	}
	if f.Length, err = strconv.Atoi(rec[1]); err != nil {
		return f, fmt.Errorf("trace: bad length %q: %w", rec[1], err)
	}
	if err := checkLength(f.Length); err != nil {
		return f, err
	}
	rate, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return f, fmt.Errorf("trace: bad rate_bps %q: %w", rec[2], err)
	}
	f.Rate = dot11.Rate(rate)
	port, err := strconv.Atoi(rec[3])
	if err != nil || port < 0 || port > 65535 {
		return f, fmt.Errorf("trace: bad dst_port %q", rec[3])
	}
	f.DstPort = uint16(port)
	if f.MoreData, err = strconv.ParseBool(rec[4]); err != nil {
		return f, fmt.Errorf("trace: bad more_data %q: %w", rec[4], err)
	}
	return f, nil
}
