// Package wifi models 802.11 frames: addressing, frame types, typed
// management/control/data bodies, a compact binary wire format, and
// airtime arithmetic for an 11 Mbps (802.11b-class) channel, which is the
// rate the paper assumes for Bw.
//
// The discrete-event medium passes *Frame values by pointer for speed,
// but every frame has a faithful Encode/Decode round trip so traces can
// be exported and the protocol machinery is exercised against real bytes
// in tests.
package wifi

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is a 48-bit MAC address.
type Addr [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// NewAddr builds a locally administered address from a class byte and an
// index, convenient for deterministic simulations: class distinguishes
// APs from clients, index enumerates them.
func NewAddr(class byte, index uint32) Addr {
	var a Addr
	a[0] = 0x02 // locally administered, unicast
	a[1] = class
	binary.BigEndian.PutUint32(a[2:], index)
	return a
}

// Index returns the index NewAddr embedded in a.
func (a Addr) Index() uint32 { return binary.BigEndian.Uint32(a[2:]) }

// IsBroadcast reports whether a is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// Less orders addresses lexicographically — the canonical sort used by
// deterministic exports (client rosters, checkpoint state).
func (a Addr) Less(b Addr) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func (a Addr) String() string {
	var buf [addrTextLen]byte
	return string(a.AppendTo(buf[:0]))
}

// addrTextLen is the length of an address's text form.
const addrTextLen = len("00:00:00:00:00:00")

// AppendTo appends the address's text form, the six bytes in
// lower-case hex separated by colons, to b. Callers that build names
// from addresses assemble them in a stack buffer through it. It has
// the shape of netip.Addr.AppendTo, not of encoding.TextAppender.
func (a Addr) AppendTo(b []byte) []byte {
	const hex = "0123456789abcdef"
	for i, c := range a {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, hex[c>>4], hex[c&0xf])
	}
	return b
}

// FrameType enumerates the frame subtypes the simulation uses.
type FrameType uint8

// Frame subtypes. Auth is modeled as a two-message exchange (TypeAuthReq,
// TypeAuthResp) rather than one type with sequence numbers; the timing is
// identical and the state machines are simpler to audit.
const (
	TypeBeacon FrameType = iota + 1
	TypeProbeReq
	TypeProbeResp
	TypeAuthReq
	TypeAuthResp
	TypeAssocReq
	TypeAssocResp
	TypeDeauth
	TypeData
	TypeNull   // data null function; carries the PM bit for PSM entry/exit
	TypePSPoll // power-save poll
	TypeAck
)

var typeNames = map[FrameType]string{
	TypeBeacon:    "beacon",
	TypeProbeReq:  "probe-req",
	TypeProbeResp: "probe-resp",
	TypeAuthReq:   "auth-req",
	TypeAuthResp:  "auth-resp",
	TypeAssocReq:  "assoc-req",
	TypeAssocResp: "assoc-resp",
	TypeDeauth:    "deauth",
	TypeData:      "data",
	TypeNull:      "null",
	TypePSPoll:    "ps-poll",
	TypeAck:       "ack",
}

func (t FrameType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("frametype(%d)", uint8(t))
}

// IsManagement reports whether the type belongs to the management class
// (the join pipeline). Management frames are never PSM-buffered — the
// paper's key observation is that the join process cannot be deferred.
func (t FrameType) IsManagement() bool {
	switch t {
	case TypeBeacon, TypeProbeReq, TypeProbeResp, TypeAuthReq, TypeAuthResp,
		TypeAssocReq, TypeAssocResp, TypeDeauth:
		return true
	}
	return false
}

// Body is a typed frame payload that knows its encoded form.
type Body interface {
	// BodySize returns the encoded length in bytes, including any virtual
	// (accounted but unmaterialized) payload.
	BodySize() int
	// AppendBody appends the encoding to b and returns the extended slice.
	AppendBody(b []byte) []byte
}

// Frame is one over-the-air 802.11 frame.
type Frame struct {
	Type  FrameType
	SA    Addr // transmitter
	DA    Addr // receiver (or broadcast)
	BSSID Addr
	Seq   uint16
	// PowerMgmt is the PM bit: on a Null frame it announces the station is
	// entering (true) or leaving (false) power-save mode. Virtualized
	// Wi-Fi systems set it "falsely" to make APs buffer while the client
	// serves another AP or channel (§2).
	PowerMgmt bool
	Retry     bool
	Body      Body
	// Halo marks a frame mirrored in from a neighboring spatial shard's
	// medium. It is simulation metadata, not an 802.11 field: it never
	// goes on the wire (Encode drops it, Decode leaves it false), and
	// receivers use it to tag scan results whose AP lives outside their
	// shard.
	Halo bool
	// pooled marks a frame owned by a Pool; the medium recycles it after
	// transmit completion. Simulation metadata, never on the wire.
	pooled bool
}

// headerSize is the encoded fixed header: type(1) flags(1) seq(2)
// addrs(18) bodyLen(2).
const headerSize = 24

// Size returns the full encoded frame length in bytes.
func (f *Frame) Size() int {
	n := headerSize
	if f.Body != nil {
		n += f.Body.BodySize()
	}
	return n
}

func (f *Frame) String() string {
	return fmt.Sprintf("%s %s->%s bssid=%s seq=%d", f.Type, f.SA, f.DA, f.BSSID, f.Seq)
}

// Flag bits in the encoded header.
const (
	flagPowerMgmt = 1 << 0
	flagRetry     = 1 << 1
)

// Encode serializes the frame to its wire format.
func (f *Frame) Encode() []byte {
	b := make([]byte, 0, f.Size())
	b = append(b, byte(f.Type))
	var flags byte
	if f.PowerMgmt {
		flags |= flagPowerMgmt
	}
	if f.Retry {
		flags |= flagRetry
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint16(b, f.Seq)
	b = append(b, f.SA[:]...)
	b = append(b, f.DA[:]...)
	b = append(b, f.BSSID[:]...)
	bodyLen := 0
	if f.Body != nil {
		bodyLen = f.Body.BodySize()
	}
	b = binary.BigEndian.AppendUint16(b, uint16(bodyLen))
	if f.Body != nil {
		b = f.Body.AppendBody(b)
	}
	return b
}

// Decoding errors.
var (
	ErrTruncated = errors.New("wifi: truncated frame")
	ErrBadType   = errors.New("wifi: unknown frame type")
)

// EncodeFrames returns each frame's wire encoding (nil for no frames):
// the form checkpoints keep frame queues in.
func EncodeFrames(fs []*Frame) [][]byte {
	if len(fs) == 0 {
		return nil
	}
	out := make([][]byte, len(fs))
	for i, f := range fs {
		out[i] = f.Encode()
	}
	return out
}

// DecodeFrames decodes what EncodeFrames produced.
func DecodeFrames(bs [][]byte) ([]*Frame, error) {
	if len(bs) == 0 {
		return nil, nil
	}
	out := make([]*Frame, len(bs))
	for i, b := range bs {
		f, err := Decode(b)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

// Decode parses a wire-format frame.
func Decode(b []byte) (*Frame, error) {
	if len(b) < headerSize {
		return nil, ErrTruncated
	}
	f := &Frame{Type: FrameType(b[0])}
	if _, ok := typeNames[f.Type]; !ok {
		return nil, ErrBadType
	}
	flags := b[1]
	f.PowerMgmt = flags&flagPowerMgmt != 0
	f.Retry = flags&flagRetry != 0
	f.Seq = binary.BigEndian.Uint16(b[2:])
	copy(f.SA[:], b[4:10])
	copy(f.DA[:], b[10:16])
	copy(f.BSSID[:], b[16:22])
	bodyLen := int(binary.BigEndian.Uint16(b[22:24]))
	if len(b) < headerSize+bodyLen {
		return nil, ErrTruncated
	}
	if bodyLen > 0 || bodyKindHasBody(f.Type) {
		body, err := decodeBody(f.Type, b[headerSize:headerSize+bodyLen])
		if err != nil {
			return nil, err
		}
		f.Body = body
	}
	return f, nil
}

func bodyKindHasBody(t FrameType) bool {
	switch t {
	case TypeAck, TypePSPoll, TypeNull:
		return false
	}
	return true
}
