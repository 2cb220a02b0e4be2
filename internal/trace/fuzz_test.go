package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/dot11"
)

// Fuzz targets for the trace readers, the parsers that take trace files
// from outside. No input may panic, and every trace a reader accepts
// must write back through the matching writer and read back equal.

// seedTrace is a few seconds of a generated scenario, the well-formed
// seed each target starts from in its own format.
func seedTrace(f *testing.F) *Trace {
	f.Helper()
	tr, err := GenerateScenario(Starbucks)
	if err != nil {
		f.Fatal(err)
	}
	return Truncate(tr, 3*time.Second)
}

// addWritten seeds the corpus with tr as write encodes it.
func addWritten(f *testing.F, tr *Trace, write func(io.Writer, *Trace) error) {
	f.Helper()
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

// checkRoundTrip writes an accepted trace back and requires the reader
// to return it unchanged.
func checkRoundTrip(t *testing.T, tr *Trace, write func(io.Writer, *Trace) error, read func(io.Reader) (*Trace, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		t.Fatalf("accepted trace does not write back: %v\n%+v", err, tr)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("written trace does not read back: %v\n%+v", err, tr)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatalf("round trip changed the trace:\nread    %+v\nwritten %+v", tr, back)
	}
}

// FuzzReadCSV: names with spaces and semicolons round-trip, and NaN,
// infinite rates and microsecond counts a Duration cannot hold are
// rejected.
func FuzzReadCSV(f *testing.F) {
	addWritten(f, seedTrace(f), WriteCSV)
	const hdr = "at_us,length,rate_bps,dst_port,more_data\n"
	for _, s := range []string{
		"#name=Star bucks;duration_us=10000000\n" + hdr + "1000,100,1000000,5353,false\n",
		"#name=a;b;duration_us=2000000\n" + hdr + "0,100,2e6,137,true\n",
		"#name=nan;duration_us=1000000\n" + hdr + "0,100,NaN,5353,false\n",
		"#name=inf;duration_us=1000000\n" + hdr + "0,100,+Inf,5353,false\n",
		"#name=wrap;duration_us=9223372036854776\n" + hdr + "9223372036854776,100,1e6,5353,false\n",
		"#comment\r\n" + hdr,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, tr, WriteCSV, ReadCSV)
	})
}

// FuzzReadPCAP covers the three link types (radiotap, 802.11 and
// Ethernet) and a record cut at its snaplen, with the importer's
// default rate as a second input.
// WritePCAP carries nanosecond timestamps and radiotap rates, so an
// accepted capture reads back as the same trace under the same
// options.
func FuzzReadPCAP(f *testing.F) {
	var buf bytes.Buffer
	if err := WritePCAP(&buf, seedTrace(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), 0.0)

	const epoch = 1_700_000_000 * time.Second
	f.Add(buildPCAP(f, DLTEthernet, [][]byte{ethBroadcastUDP(5353, 50), ethBroadcastUDP(1900, 80)},
		[]time.Duration{epoch + time.Second, epoch + 2*time.Second}), 2e6)

	beacon, err := (&dot11.Beacon{Header: dot11.MACHeader{Addr1: dot11.Broadcast}, SSID: "x"}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	data := (&dot11.DataFrame{
		Header:  dot11.MACHeader{FC: dot11.FrameControl{FromDS: true, MoreData: true}, Addr1: dot11.Broadcast},
		Payload: dot11.EncapsulateUDP(dot11.UDPDatagram{DstPort: 1900, Payload: make([]byte, 20)}),
	}).Marshal()
	f.Add(buildPCAP(f, DLT80211, [][]byte{beacon, data}, []time.Duration{time.Second, 2 * time.Second}), 5.5e6)
	f.Add(snapPCAP(f, DLTRadiotap, radiotapUDP(5353, 200), 96), 0.0) // cut inside the UDP payload

	f.Fuzz(func(t *testing.T, data []byte, rate float64) {
		opts := PCAPOptions{Name: "fuzz", DefaultRate: dot11.Rate(rate)}
		read := func(r io.Reader) (*Trace, error) { return ReadPCAP(r, opts) }
		tr, err := read(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkRoundTrip(t, tr, WritePCAP, read)
	})
}
