// Package pkt implements wire-format encoding and decoding for the packet
// headers used on the 5GC data path: Ethernet, IPv4, UDP, TCP and ICMP.
//
// Decoding follows the gopacket DecodingLayer style: headers decode from a
// byte slice into preallocated, reusable structs with no per-packet
// allocation, which is what keeps the UPF-U fast path allocation-free.
package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Header sizes in bytes.
const (
	EthernetLen = 14
	IPv4MinLen  = 20
	UDPLen      = 8
	TCPMinLen   = 20
	ICMPLen     = 8
)

// EtherType values.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// Errors returned by header decoding.
var (
	ErrTruncated  = errors.New("pkt: truncated header")
	ErrBadVersion = errors.New("pkt: unsupported IP version")
	ErrBadIHL     = errors.New("pkt: bad IPv4 header length")
)

// MAC is a 6-byte Ethernet address.
type MAC [6]byte

// String renders the address in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Addr is an IPv4 address in host-friendly array form; it is comparable and
// usable as a map key (the UPF DL session table is keyed by UE IP).
type Addr [4]byte

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// AddrFrom returns the address a.b.c.d.
func AddrFrom(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// Uint32 returns the address as a big-endian integer.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// AddrFromUint32 converts a big-endian integer to an Addr.
func AddrFromUint32(v uint32) (a Addr) {
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16
}

// Decode parses the header from b and returns the payload.
func (h *Ethernet) Decode(b []byte) ([]byte, error) {
	if len(b) < EthernetLen {
		return nil, ErrTruncated
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[EthernetLen:], nil
}

// Encode writes the header into b, which must be >= EthernetLen bytes.
func (h *Ethernet) Encode(b []byte) error {
	if len(b) < EthernetLen {
		return ErrTruncated
	}
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
	return nil
}

// IPv4 is an IPv4 header (options preserved but not interpreted).
type IPv4 struct {
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      Addr
	Dst      Addr
}

// HeaderLen returns the header length in bytes.
func (h *IPv4) HeaderLen() int { return int(h.IHL) * 4 }

// Decode parses the header from b and returns the payload (bounded by
// TotalLen when b carries trailing padding).
func (h *IPv4) Decode(b []byte) ([]byte, error) {
	if len(b) < IPv4MinLen {
		return nil, ErrTruncated
	}
	if v := b[0] >> 4; v != 4 {
		return nil, ErrBadVersion
	}
	h.IHL = b[0] & 0x0f
	if h.IHL < 5 {
		return nil, ErrBadIHL
	}
	hl := int(h.IHL) * 4
	if len(b) < hl {
		return nil, ErrTruncated
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	end := int(h.TotalLen)
	if end > len(b) || end < hl {
		end = len(b)
	}
	return b[hl:end], nil
}

// Encode writes the header into b (length >= HeaderLen) and fills Checksum.
// TotalLen must already be set by the caller.
func (h *IPv4) Encode(b []byte) error {
	if h.IHL < 5 {
		h.IHL = 5
	}
	hl := int(h.IHL) * 4
	if len(b) < hl {
		return ErrTruncated
	}
	b[0] = 4<<4 | h.IHL
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	for i := IPv4MinLen; i < hl; i++ {
		b[i] = 0
	}
	h.Checksum = Checksum(b[:hl])
	binary.BigEndian.PutUint16(b[10:12], h.Checksum)
	return nil
}

// Checksum computes the RFC 1071 Internet checksum over b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum computes the IPv4 pseudo-header partial sum used by
// TCP/UDP checksums.
func pseudoHeaderSum(src, dst Addr, proto uint8, l4len int) uint32 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// L4Checksum computes the TCP/UDP checksum of segment with the v4
// pseudo-header. The checksum field inside segment must be zeroed first.
func L4Checksum(src, dst Addr, proto uint8, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	b := segment
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b[:2]))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Decode parses the header from b and returns the payload.
func (h *UDP) Decode(b []byte) ([]byte, error) {
	if len(b) < UDPLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	h.Checksum = binary.BigEndian.Uint16(b[6:8])
	return b[UDPLen:], nil
}

// Encode writes the header into b. Length must already be set.
func (h *UDP) Encode(b []byte) error {
	if len(b) < UDPLen {
		return ErrTruncated
	}
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], h.Checksum)
	return nil
}

// TCP flags.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP header (options preserved as raw bytes).
type TCP struct {
	SrcPort    uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	DataOffset uint8 // header length in 32-bit words
	Flags      uint8
	Window     uint16
	Checksum   uint16
	Urgent     uint16
}

// Decode parses the header from b and returns the payload.
func (h *TCP) Decode(b []byte) ([]byte, error) {
	if len(b) < TCPMinLen {
		return nil, ErrTruncated
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.DataOffset = b[12] >> 4
	if h.DataOffset < 5 {
		return nil, ErrBadIHL
	}
	hl := int(h.DataOffset) * 4
	if len(b) < hl {
		return nil, ErrTruncated
	}
	h.Flags = b[13] & 0x3f
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	h.Urgent = binary.BigEndian.Uint16(b[18:20])
	return b[hl:], nil
}

// Encode writes the header into b (no options).
func (h *TCP) Encode(b []byte) error {
	if h.DataOffset < 5 {
		h.DataOffset = 5
	}
	hl := int(h.DataOffset) * 4
	if len(b) < hl {
		return ErrTruncated
	}
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = h.DataOffset << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	binary.BigEndian.PutUint16(b[18:20], h.Urgent)
	for i := TCPMinLen; i < hl; i++ {
		b[i] = 0
	}
	return nil
}

// ICMP is an ICMP echo-style header (type, code, id, seq).
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	ID       uint16
	Seq      uint16
}

// Decode parses the header from b and returns the payload.
func (h *ICMP) Decode(b []byte) ([]byte, error) {
	if len(b) < ICMPLen {
		return nil, ErrTruncated
	}
	h.Type = b[0]
	h.Code = b[1]
	h.Checksum = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.Seq = binary.BigEndian.Uint16(b[6:8])
	return b[ICMPLen:], nil
}

// Encode writes the header into b.
func (h *ICMP) Encode(b []byte) error {
	if len(b) < ICMPLen {
		return ErrTruncated
	}
	b[0] = h.Type
	b[1] = h.Code
	binary.BigEndian.PutUint16(b[2:4], h.Checksum)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], h.Seq)
	return nil
}

// FiveTuple identifies an IP flow; it is the key structure that PDR SDF
// filters match against (Appendix A of the paper).
type FiveTuple struct {
	Src      Addr
	Dst      Addr
	SrcPort  uint16
	DstPort  uint16
	Protocol uint8
}

// String renders the tuple for diagnostics.
func (f FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", f.Src, f.SrcPort, f.Dst, f.DstPort, f.Protocol)
}

// Parsed is a zero-allocation view of a decoded IPv4 packet: the reusable
// header structs plus the flow tuple and payload slice. One Parsed per
// worker goroutine is enough for the whole run (DecodingLayerParser style).
type Parsed struct {
	IP   IPv4
	UDP  UDP
	TCP  TCP
	ICMP ICMP
	FlowKey
	Payload []byte
	L4      uint8 // ProtoUDP, ProtoTCP, ProtoICMP, or 0 for other
}

// FlowKey is what one packet contributes to a rule lookup: the inner
// 5-tuple and TOS, which ParseIPv4 fills, plus the tunnel it arrived on and
// its direction, which the fast path adds. It is embedded in Parsed so that
// whoever owns a Parsed owns the lookup key with it: classifiers are called
// through an interface, and a key built on the stack for such a call is
// moved to the heap once per packet.
type FlowKey struct {
	Tuple      FiveTuple
	TOS        uint8
	TEID       uint32
	FromAccess bool
}

// ParseIPv4 decodes an IP packet (no Ethernet framing, as carried inside
// GTP-U) into p. It returns an error on malformed input.
func (p *Parsed) ParseIPv4(b []byte) error {
	pl, err := p.IP.Decode(b)
	if err != nil {
		return err
	}
	p.TOS = p.IP.TOS
	p.Tuple = FiveTuple{Src: p.IP.Src, Dst: p.IP.Dst, Protocol: p.IP.Protocol}
	p.L4 = 0
	p.Payload = pl
	switch p.IP.Protocol {
	case ProtoUDP:
		pp, err := p.UDP.Decode(pl)
		if err != nil {
			return err
		}
		p.Tuple.SrcPort, p.Tuple.DstPort = p.UDP.SrcPort, p.UDP.DstPort
		p.Payload = pp
		p.L4 = ProtoUDP
	case ProtoTCP:
		pp, err := p.TCP.Decode(pl)
		if err != nil {
			return err
		}
		p.Tuple.SrcPort, p.Tuple.DstPort = p.TCP.SrcPort, p.TCP.DstPort
		p.Payload = pp
		p.L4 = ProtoTCP
	case ProtoICMP:
		pp, err := p.ICMP.Decode(pl)
		if err != nil {
			return err
		}
		p.Payload = pp
		p.L4 = ProtoICMP
	}
	return nil
}

// BuildUDPv4 encodes a complete IPv4/UDP packet into dst and returns its
// length. dst must have room for 28 bytes of headers plus the payload.
func BuildUDPv4(dst []byte, src, dstAddr Addr, sport, dport uint16, tos uint8, payload []byte) (int, error) {
	total := IPv4MinLen + UDPLen + len(payload)
	if len(dst) < total {
		return 0, ErrTruncated
	}
	ip := IPv4{
		IHL: 5, TOS: tos, TotalLen: uint16(total), TTL: 64,
		Protocol: ProtoUDP, Src: src, Dst: dstAddr,
	}
	if err := ip.Encode(dst[:IPv4MinLen]); err != nil {
		return 0, err
	}
	u := UDP{SrcPort: sport, DstPort: dport, Length: uint16(UDPLen + len(payload))}
	if err := u.Encode(dst[IPv4MinLen : IPv4MinLen+UDPLen]); err != nil {
		return 0, err
	}
	copy(dst[IPv4MinLen+UDPLen:], payload)
	cs := L4Checksum(src, dstAddr, ProtoUDP, dst[IPv4MinLen:total])
	binary.BigEndian.PutUint16(dst[IPv4MinLen+6:IPv4MinLen+8], cs)
	return total, nil
}
