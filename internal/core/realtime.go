package core

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/dot11"
	"repro/internal/netmedium"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file pins the virtual-time simulation to the wall clock and
// exposes it over the network: taps subscribe for a monitor-mode frame
// stream and can inject broadcast traffic into the AP while the
// simulation runs — the live-observability surface of the simulator.
// It runs on the same live machinery as the hided/hidec daemons: the
// engine's RunRealtime driver, its inject channel, and the shared
// netmedium peer table.

// defaultPingEvery is the default liveness-sweep cadence in virtual
// time.
const defaultPingEvery = time.Second

// monitorInjects bounds the inject requests queued for the engine: 64
// absorbs a burst of tap requests while the engine is busy with an
// event. Past that, or while no replay drains the queue, the server
// drops a request like a lost datagram rather than stall its read loop
// (netmedium.Offer), and counts it in its Stats.
const monitorInjects = 64

// Monitor couples a Network to a netmedium server.
type Monitor struct {
	Server *netmedium.Server

	inject    chan sim.Event // requests awaiting the engine; see monitorInjects
	served    chan struct{}
	pingEvery time.Duration // 0 = defaultPingEvery
}

// ServeMonitor starts a monitor/inject service on pc. Every frame on
// the medium streams to subscribers; inject requests are applied on
// the engine while ReplayRealtime runs. The returned Monitor's Close
// stops the service.
//
//lint:ignore ctxfirst the monitor lifetime is owned by Close, not a context
func (n *Network) ServeMonitor(pc net.PacketConn) *Monitor {
	m := &Monitor{inject: make(chan sim.Event, monitorInjects), served: make(chan struct{})}
	m.Server = netmedium.NewServer(pc, m.inject, func(req netmedium.InjectRequest) {
		n.AP.EnqueueGroup(dot11.UDPDatagram{
			DstIP:   [4]byte{255, 255, 255, 255},
			DstPort: req.DstPort,
			Payload: make([]byte, int(req.PayloadSize)),
		}, dot11.Rate1Mbps)
	})
	n.monitor = m
	n.Medium.SetTap(n.tap)
	//lint:ignore gojoin the serve goroutine IS the monitor's lifetime — Close joins it through the served channel; it cannot join here or ServeMonitor would never return
	go func() {
		defer close(m.served)
		_ = m.Server.Serve() //lint:ignore errdrop Serve returns only when Close shuts the socket
	}()
	return m
}

// SetLiveness configures the tap-eviction parameters: pingEvery is
// the sweep cadence in virtual time (0 keeps the one-second default),
// maxMissed is how many unanswered sweeps evict a tap (<1 keeps the
// default of 3). Call it before ReplayRealtime.
func (m *Monitor) SetLiveness(pingEvery time.Duration, maxMissed int) {
	m.pingEvery = pingEvery
	m.Server.SetLiveness(maxMissed)
}

// Close stops the monitor service and waits for its goroutine.
func (m *Monitor) Close() error {
	err := m.Server.Close()
	<-m.served
	return err
}

// ReplayRealtime replays the trace paced to the wall clock: one second
// of virtual time takes 1/speed wall seconds. It is Replay run by
// sim.Engine.RunRealtime instead of RunUntil, and ends in the same
// state: the run stops once every event up to the trace duration plus
// one beacon interval has fired. With a Monitor serving, tap injects
// are applied on the engine and a periodic event sweeps tap liveness.
// The context cancels the run early.
func (n *Network) ReplayRealtime(ctx context.Context, tr *trace.Trace, speed float64) error {
	if speed <= 0 {
		return fmt.Errorf("core: non-positive realtime speed %v", speed)
	}
	if err := n.ScheduleReplay(tr); err != nil {
		return err
	}
	var inject chan sim.Event
	if m := n.monitor; m != nil {
		inject = m.inject
		every := m.pingEvery
		if every <= 0 {
			every = defaultPingEvery
		}
		var sweep sim.Event
		sweep = func(time.Duration) {
			m.Server.PingPeers()
			n.Engine.MustScheduleAfter(every, sweep)
		}
		n.Engine.MustScheduleAfter(every, sweep)
	}
	// stop ends the run like RunUntil(end): it waits for the rest of
	// its instant, including events scheduled there after it, to fire.
	var stop sim.Event
	stop = func(now time.Duration) {
		if next, ok := n.Engine.NextEventAt(); ok && next <= now {
			n.Engine.MustScheduleAt(now, stop)
			return
		}
		n.Engine.Stop()
	}
	n.Engine.MustScheduleAt(ReplayEnd(tr), stop)
	return n.Engine.RunRealtime(ctx, inject, speed)
}
