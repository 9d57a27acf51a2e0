// Package dhcp implements the simulator's DHCP: a four-message
// DISCOVER/OFFER/REQUEST/ACK handshake, server-side address pools with
// leases and configurable response latency, and a client state machine
// with the timeout/retry policies the paper studies (default 1 s message
// timers with a 3 s attempt window and 60 s idle back-off, versus the
// reduced 100–600 ms timers of §4.5).
//
// The defining property, from §2: "the time to complete the dhcp process
// is controlled by the AP rather than the client". Server latency here is
// a distribution the client cannot influence; all a client controls is
// how long it dwells to wait and how often it retries.
package dhcp

import (
	"encoding/binary"
	"fmt"

	"spider/internal/wifi"
)

// Op is the DHCP message operation.
type Op uint8

// Message operations.
const (
	Discover Op = iota + 1
	Offer
	Request
	Ack
	Nak
)

var opNames = map[Op]string{
	Discover: "DISCOVER", Offer: "OFFER", Request: "REQUEST", Ack: "ACK", Nak: "NAK",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IP is an IPv4 address as a big-endian uint32.
type IP uint32

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Message is one DHCP message. It rides inside a wifi data frame with
// Proto = ProtoDHCP.
type Message struct {
	Op        Op
	XID       uint32
	ClientMAC wifi.Addr
	YourIP    IP     // offered/assigned address (OFFER/REQUEST/ACK)
	ServerID  uint32 // identifies the responding server
	LeaseSecs uint32
}

// encodedLen is the wire size of a Message.
const encodedLen = 1 + 4 + 6 + 4 + 4 + 4

// WireOverhead approximates UDP/IP/BOOTP framing not modeled explicitly,
// so DHCP frames occupy realistic airtime (~300 bytes on real networks).
// Frame builders (the driver, the AP) set it as their DataBody's
// VirtualLen.
const WireOverhead = 270

// AppendEncode serializes the message into b, which the caller owns and
// may reuse.
func (m *Message) AppendEncode(b []byte) []byte {
	b = append(b, byte(m.Op))
	b = binary.BigEndian.AppendUint32(b, m.XID)
	b = append(b, m.ClientMAC[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(m.YourIP))
	b = binary.BigEndian.AppendUint32(b, m.ServerID)
	b = binary.BigEndian.AppendUint32(b, m.LeaseSecs)
	return b
}

// DecodeMessageInto parses a wire-format message into a caller-owned
// value, reporting success. Bytes past the fixed wire length are
// ignored. Receivers that keep anything must copy; both state machines
// read the message synchronously.
func DecodeMessageInto(m *Message, b []byte) bool {
	if len(b) < encodedLen {
		return false
	}
	op := Op(b[0])
	if _, ok := opNames[op]; !ok {
		return false
	}
	m.Op = op
	m.XID = binary.BigEndian.Uint32(b[1:5])
	copy(m.ClientMAC[:], b[5:11])
	m.YourIP = IP(binary.BigEndian.Uint32(b[11:15]))
	m.ServerID = binary.BigEndian.Uint32(b[15:19])
	m.LeaseSecs = binary.BigEndian.Uint32(b[19:23])
	return true
}
