// Command hidetap is a monitor-mode client for a simulation served by
// `hidenet -serve`: it subscribes to the frame stream and prints a
// tcpdump-style line per frame, decoding beacons (TIM/BTIM bits), UDP
// Port Messages, and broadcast data. With -inject it pushes a
// broadcast frame into the running simulation first.
//
// Usage:
//
//	hidetap -addr 127.0.0.1:5599 [-n 50] [-inject 5353] [-timeout 10s]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cli"
	"repro/internal/dot11"
	"repro/internal/netmedium"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5599", "monitor service address")
	count := flag.Int("n", 50, "frames to print before exiting (0 = forever)")
	inject := flag.Int("inject", 0, "inject a broadcast frame to this UDP port first")
	timeout := flag.Duration("timeout", 10*time.Second, "per-frame receive timeout")
	flag.Parse()
	if *count < 0 {
		cli.Usagef("hidetap", "-n %d must not be negative", *count)
	}
	if *inject < 0 || *inject > 0xffff {
		cli.Usagef("hidetap", "-inject %d is not a UDP port (0 injects nothing)", *inject)
	}
	if *timeout <= 0 {
		cli.Usagef("hidetap", "-timeout %v must be positive", *timeout)
	}

	tap, err := netmedium.Dial(*addr)
	if err != nil {
		cli.Exit("hidetap", err)
	}
	//lint:ignore errdrop teardown of a read-side UDP socket at process exit; nothing is buffered and the process has no one left to tell
	defer tap.Close()

	if *inject > 0 {
		if err := tap.Inject(netmedium.InjectRequest{DstPort: uint16(*inject), PayloadSize: 64}); err != nil {
			cli.Exit("hidetap", fmt.Errorf("inject: %w", err))
		}
		fmt.Printf("injected broadcast to udp/%d\n", *inject)
	}

	// Ctrl-C ends the stream cleanly between frames (the per-frame
	// receive timeout bounds how long the check can be deferred).
	ctx, stop := cli.SignalContext()
	defer stop()
	for i := 0; *count == 0 || i < *count; i++ {
		if ctx.Err() != nil {
			return
		}
		//lint:ignore determinism live capture deadline on a real socket, not simulation state
		ev, err := tap.Next(time.Now().Add(*timeout))
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			cli.Exit("hidetap", err)
		}
		fmt.Println(describe(ev))
	}
}

// describe formats one frame event as a tcpdump-style line.
func describe(ev netmedium.FrameEvent) string {
	prefix := fmt.Sprintf("%12v %8s %4dB ", ev.At, ev.Rate, len(ev.Raw))
	switch k := dot11.Classify(ev.Raw); k {
	case dot11.KindBeacon:
		var b dot11.BeaconReading
		if err := dot11.ReadBeacon(ev.Raw, &b); err != nil {
			return prefix + "beacon (malformed)"
		}
		s := prefix + fmt.Sprintf("beacon ssid=%q", b.SSID)
		if b.HasTIM {
			s += fmt.Sprintf(" dtim=%d/%d bc=%v", b.TIM.DTIMCount, b.TIM.DTIMPeriod, b.TIM.Broadcast)
		}
		if b.HasBTIM {
			s += fmt.Sprintf(" btim[off=%d,%dB]", b.BTIM.Offset, len(b.BTIM.PartialBitmap))
		}
		return s
	case dot11.KindUDPPortMessage:
		hdr, ports, err := dot11.ReadUDPPortMessage(ev.Raw, nil)
		if err != nil {
			return prefix + "udp-port-message (malformed)"
		}
		return prefix + fmt.Sprintf("udp-port-message from %v: %d ports %v",
			hdr.Addr2, len(ports), ports)
	case dot11.KindData:
		var d dot11.DataFrame
		if err := dot11.ReadDataFrame(ev.Raw, &d); err != nil {
			return prefix + "data (malformed)"
		}
		dst := "unicast"
		if d.Header.Addr1.IsBroadcast() {
			dst = "broadcast"
		}
		if dg, err := dot11.ParseUDP(d.Payload); err == nil {
			return prefix + fmt.Sprintf("data %s udp/%d more=%v", dst, dg.DstPort, d.Header.FC.MoreData)
		}
		return prefix + "data " + dst
	case dot11.KindACK:
		return prefix + "ack"
	case dot11.KindPSPoll:
		return prefix + "ps-poll"
	default:
		return prefix + k.String()
	}
}
