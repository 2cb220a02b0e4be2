package dot11

import (
	"errors"
	"fmt"
)

// This file synthesizes and parses the LLC/SNAP + IPv4 + UDP payload
// of a UDP-padded broadcast frame. Stations and the trace importer take
// the destination UDP port from the frame body, so the simulated frames
// carry a real, parseable encapsulation rather than an out-of-band tag.

// Encapsulation header lengths in bytes.
const (
	LLCSNAPLen = 8
	IPv4HdrLen = 20
	UDPHdrLen  = 8
	// UDPEncapsLen is the total encapsulation overhead between the MAC
	// header and the UDP payload.
	UDPEncapsLen = LLCSNAPLen + IPv4HdrLen + UDPHdrLen
)

// etherTypeIPv4 is the SNAP ethertype for IPv4.
const etherTypeIPv4 = 0x0800

// UDPDatagram describes a UDP datagram to encapsulate.
type UDPDatagram struct {
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
	Payload          []byte
}

// EncapsulateUDP builds the LLC/SNAP + IPv4 + UDP body for a data frame.
func EncapsulateUDP(d UDPDatagram) []byte {
	total := UDPEncapsLen + len(d.Payload)
	b := make([]byte, total)

	// LLC/SNAP: DSAP=AA SSAP=AA CTRL=03, OUI=000000, EtherType.
	b[0], b[1], b[2] = 0xaa, 0xaa, 0x03
	b[6] = byte(etherTypeIPv4 >> 8)
	b[7] = byte(etherTypeIPv4 & 0xff)

	ip := b[LLCSNAPLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ipLen := IPv4HdrLen + UDPHdrLen + len(d.Payload)
	ip[2] = byte(ipLen >> 8)
	ip[3] = byte(ipLen)
	ip[8] = 64 // TTL
	ip[9] = 17 // protocol UDP
	copy(ip[12:16], d.SrcIP[:])
	copy(ip[16:20], d.DstIP[:])
	cs := ipv4Checksum(ip[:IPv4HdrLen])
	ip[10] = byte(cs >> 8)
	ip[11] = byte(cs)

	udp := ip[IPv4HdrLen:]
	udp[0] = byte(d.SrcPort >> 8)
	udp[1] = byte(d.SrcPort)
	udp[2] = byte(d.DstPort >> 8)
	udp[3] = byte(d.DstPort)
	ul := UDPHdrLen + len(d.Payload)
	udp[4] = byte(ul >> 8)
	udp[5] = byte(ul)
	copy(udp[UDPHdrLen:], d.Payload)
	return b
}

// ParseUDP extracts the UDP datagram from a data-frame body produced by
// EncapsulateUDP (or any LLC/SNAP IPv4 UDP body). It walks the headers
// DstUDPPort walks and then checks what a kernel checks before waking a
// socket: the IPv4 header checksum must hold, and a UDP length that
// runs past the body is an error. The port readers skip the checksum,
// because a capture taken on the sending host carries the checksums
// its NIC fills in later.
func ParseUDP(body []byte) (UDPDatagram, error) {
	var d UDPDatagram
	ip, err := snapIPv4(body)
	if err != nil {
		return d, err
	}
	udp, err := ipv4UDP(ip)
	if err != nil {
		return d, err
	}
	if hdr := ip[:len(ip)-len(udp)]; uint16(hdr[10])<<8|uint16(hdr[11]) != ipv4Checksum(hdr) {
		return d, errIPv4Checksum
	}
	ul := int(udp[4])<<8 | int(udp[5])
	if ul < UDPHdrLen || len(udp) < ul {
		return d, fmt.Errorf("%w: UDP length %d with %d bytes", ErrShortFrame, ul, len(udp))
	}
	copy(d.SrcIP[:], ip[12:16])
	copy(d.DstIP[:], ip[16:20])
	d.SrcPort = uint16(udp[0])<<8 | uint16(udp[1])
	d.DstPort = uint16(udp[2])<<8 | uint16(udp[3])
	d.Payload = udp[UDPHdrLen:ul]
	return d, nil
}

// DstUDPPort reads the destination UDP port of a data-frame body from
// its LLC/SNAP, IPv4 and UDP headers alone, so a body cut short after
// the UDP header, as in a capture truncated at its snaplen, still
// yields its port. It accepts every body ParseUDP accepts, with the
// same port.
func DstUDPPort(body []byte) (uint16, error) {
	ip, err := snapIPv4(body)
	if err != nil {
		return 0, err
	}
	return IPv4DstUDPPort(ip)
}

// IPv4DstUDPPort is DstUDPPort for a bare IPv4 packet, as an Ethernet
// capture carries it behind the EtherType.
func IPv4DstUDPPort(ip []byte) (uint16, error) {
	udp, err := ipv4UDP(ip)
	if err != nil {
		return 0, err
	}
	return uint16(udp[2])<<8 | uint16(udp[3]), nil
}

// snapIPv4 checks that a data-frame body opens with an LLC/SNAP header
// naming IPv4 and returns the packet behind it.
func snapIPv4(body []byte) ([]byte, error) {
	if len(body) < LLCSNAPLen || body[0] != 0xaa || body[1] != 0xaa || body[2] != 0x03 ||
		uint16(body[6])<<8|uint16(body[7]) != etherTypeIPv4 {
		return nil, errNotSNAPIPv4
	}
	return body[LLCSNAPLen:], nil
}

// ipv4UDP walks the header of an IPv4 packet carrying UDP and returns
// the segment behind it, which holds at least a whole UDP header. It
// is the one IPv4 header walk: ParseUDP and both port readers use it.
// Only a first fragment (fragment offset 0, as in every unfragmented
// packet) opens with the UDP header; a later fragment carries payload
// there and is refused.
func ipv4UDP(ip []byte) ([]byte, error) {
	if len(ip) < IPv4HdrLen || ip[0]>>4 != 4 || ip[9] != 17 {
		return nil, errNotIPv4UDP
	}
	if fragOffset := uint16(ip[6]&0x1f)<<8 | uint16(ip[7]); fragOffset != 0 {
		return nil, errNotIPv4UDP
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HdrLen || len(ip) < ihl+UDPHdrLen {
		return nil, errNotIPv4UDP
	}
	return ip[ihl:], nil
}

// Errors of the header walk.
var (
	errNotSNAPIPv4  = errors.New("dot11: body is not LLC/SNAP IPv4")
	errNotIPv4UDP   = errors.New("dot11: packet is not IPv4 with a whole UDP header")
	errIPv4Checksum = errors.New("dot11: IPv4 header checksum does not hold")
)

// ipv4Checksum computes the IPv4 header checksum with the checksum
// field treated as zero.
func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field
		}
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
