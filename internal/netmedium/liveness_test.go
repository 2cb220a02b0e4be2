package netmedium

import (
	"net"
	"testing"
	"time"

	"repro/internal/dot11"
)

// deafSubscriber subscribes from a raw socket and never answers pings.
func deafSubscriber(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sub, err := Message{Type: MsgSubscribe}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(sub); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription", func() bool { return srv.Stats().Peers > 0 })
	return conn
}

func TestPingTapsEvictsDeafSubscriber(t *testing.T) {
	srv := startServer(t, nil, nil)
	deafSubscriber(t, srv)

	// The subscriber survives the first maxMissedPings sweeps and is
	// reaped on the next.
	for i := 0; i < maxMissedPings; i++ {
		srv.PingPeers()
		if got := srv.Stats().Peers; got != 1 {
			t.Fatalf("sweep %d: %d subscribers, want 1", i, got)
		}
	}
	srv.PingPeers()
	st := srv.Stats()
	if st.Peers != 0 {
		t.Fatalf("deaf subscriber survived %d sweeps", maxMissedPings+1)
	}
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.PingsSent != maxMissedPings {
		t.Errorf("PingsSent = %d, want %d", st.PingsSent, maxMissedPings)
	}
}

func TestPongKeepsSubscriberAlive(t *testing.T) {
	srv := startServer(t, nil, nil)
	conn := deafSubscriber(t, srv)
	pong, err := Message{Type: MsgPong}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*maxMissedPings; i++ {
		srv.PingPeers()
		if _, err := conn.Write(pong); err != nil {
			t.Fatal(err)
		}
		// The pong must land (and reset the miss counter) before the
		// next sweep.
		base := srv.Stats().Evictions
		waitFor(t, "pong processed", func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			for _, sub := range srv.peers.order {
				if sub.missed == 0 {
					return true
				}
			}
			return srv.Endpoint.stats.Evictions > base
		})
	}
	st := srv.Stats()
	if st.Peers != 1 || st.Evictions != 0 {
		t.Fatalf("ponging subscriber evicted: %+v", st)
	}
}

func TestTapAutoPongsAndStillReceivesFrames(t *testing.T) {
	srv := startServer(t, nil, nil)
	tap, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	waitFor(t, "subscription", func() bool { return srv.Stats().Peers > 0 })

	// Interleave sweeps with frames: Next must transparently answer
	// the pings and return only the frames.
	frame := []byte{0x80, 0x00, 7}
	for i := 0; i < maxMissedPings+2; i++ {
		srv.PingPeers()
		srv.Publish(frame, dot11.Rate1Mbps, time.Duration(i)*time.Millisecond)
		ev, err := tap.Next(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if len(ev.Raw) != len(frame) {
			t.Fatalf("sweep %d: got %d-byte frame", i, len(ev.Raw))
		}
		// The tap's pong travels asynchronously; wait for the server
		// to process it before the next sweep can count a miss.
		waitFor(t, "pong processed", func() bool {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			for _, sub := range srv.peers.order {
				if sub.missed != 0 {
					return false
				}
			}
			return srv.peers.Len() > 0
		})
	}
	if st := srv.Stats(); st.Peers != 1 || st.Evictions != 0 {
		t.Fatalf("live tap evicted: %+v", st)
	}
}

func TestUnmarshalRejectsOversizeDeclaredPayload(t *testing.T) {
	// A datagram whose length field exceeds maxFrameLen must be
	// rejected even when the bytes are actually present.
	m := Message{Type: MsgFrame, Payload: make([]byte, 16)}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, headerLen+maxFrameLen+1)
	copy(big, raw[:20])
	big[20] = byte((maxFrameLen + 1) & 0xff)
	big[21] = byte((maxFrameLen + 1) >> 8)
	if _, err := Unmarshal(big); err == nil {
		t.Fatal("oversize declared payload accepted")
	}
}
