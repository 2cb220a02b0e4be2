// Command hideport shows what a deployed HIDE client would report to
// its AP right now: it reads this machine's /proc/net/udp tables,
// extracts the wildcard-bound UDP ports (paper §III-B), and encodes
// the UDP Port Message frame that would precede the next suspend.
//
// Usage:
//
//	hideport [-hex] [-file /proc/net/udp]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/dot11"
	"repro/internal/procnet"
)

func main() {
	hexDump := flag.Bool("hex", false, "dump the encoded UDP Port Message frame")
	file := flag.String("file", "", "parse this udp table file instead of the live system")
	flag.Parse()

	var ports []uint16
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			cli.Exit("hideport", err)
		}
		socks, err := procnet.ParseTable(f)
		//lint:ignore errdrop read-side close; parse errors are already captured
		f.Close()
		if err != nil {
			cli.Exit("hideport", err)
		}
		ports = procnet.WildcardPorts(socks)
	} else {
		var err error
		ports, err = procnet.LocalOpenPorts()
		if err != nil {
			cli.Exit("hideport", err)
		}
	}

	fmt.Printf("%d wildcard-bound UDP ports: %v\n", len(ports), ports)

	msg := &dot11.UDPPortMessage{
		Header: dot11.MACHeader{
			Addr1: dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01}, // AP placeholder
			Addr2: dot11.MACAddr{0x02, 0, 0, 0, 0, 0x02}, // this client
			Addr3: dot11.MACAddr{0x02, 0, 0, 0, 0, 0x01},
		},
		Ports: ports,
	}
	raw := msg.AppendTo(nil)
	fmt.Printf("UDP Port Message: %d bytes on the wire (+%d PHY preamble bits)\n",
		len(raw), dot11.PLCPBits)
	if *hexDump {
		for i := 0; i < len(raw); i += 16 {
			end := i + 16
			if end > len(raw) {
				end = len(raw)
			}
			fmt.Printf("  %04x  % x\n", i, raw[i:end])
		}
	}
}
