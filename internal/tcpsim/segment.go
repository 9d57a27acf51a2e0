// Package tcpsim implements the flow-level TCP used to evaluate Spider:
// a Reno-style sender (slow start, congestion avoidance, fast retransmit,
// Jacobson/Karn RTO with exponential backoff) and a cumulative-ACK
// receiver. Segments ride as wifi data frames whose bulk payload is
// accounted virtually.
//
// TCP's interaction with channel schedules is the paper's §2.2.2: a
// schedule that keeps the radio away from a channel longer than the RTO
// strangles throughput via timeouts and slow-start restarts, which is why
// Fig 7 is monotone in channel fraction but Fig 8 is not in absolute
// dwell.
package tcpsim

import (
	"encoding/binary"

	"spider/internal/slab"
)

// Segment is one TCP segment (flow-level: no ports, flows carry IDs).
type Segment struct {
	FlowID uint32
	Seq    uint64 // first byte carried (data) — bytes, not packets
	Ack    uint64 // cumulative ack (ACK segments)
	Len    int    // payload bytes (data segments)
	IsAck  bool
	// Retx marks retransmitted data; receivers ignore it, Karn's
	// algorithm needs it on the sender side only, but carrying it keeps
	// traces self-describing.
	Retx bool

	pooled bool // owned by a SegPool; never encoded
}

// SegPool is a nil-safe free list of Segments for the sender's hot
// path. A nil pool allocates fresh and never recycles — senders without
// one behave exactly as before. Single-threaded like the kernel that
// drives it: one pool must not be shared across worlds.
type SegPool struct {
	list slab.List[Segment]
}

// Get returns a zeroed segment, reusing a recycled one when available.
func (p *SegPool) Get() *Segment {
	if p == nil {
		return &Segment{}
	}
	s := p.list.Get()
	*s = Segment{pooled: true}
	return s
}

// Put recycles a segment obtained from Get. Segments the pool does not
// own (fresh allocations from a nil pool, scratch values) are ignored,
// as is a double Put.
func (p *SegPool) Put(s *Segment) {
	if p == nil || s == nil || !s.pooled {
		return
	}
	s.pooled = false
	p.list.Put(s)
}

// Len reports how many recycled segments wait for a Get (none in a nil
// pool).
func (p *SegPool) Len() int {
	if p == nil {
		return 0
	}
	return p.list.Len()
}

const segHeaderLen = 4 + 8 + 8 + 2 + 1

// ackWireSize approximates a TCP ACK on the wire (TCP/IP headers).
const ackWireSize = 40

// AppendEncode serializes the segment header into b, which the caller
// owns and may reuse.
func (s *Segment) AppendEncode(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, s.FlowID)
	b = binary.BigEndian.AppendUint64(b, s.Seq)
	b = binary.BigEndian.AppendUint64(b, s.Ack)
	b = binary.BigEndian.AppendUint16(b, uint16(s.Len))
	var flags byte
	if s.IsAck {
		flags |= 1
	}
	if s.Retx {
		flags |= 2
	}
	return append(b, flags)
}

// DecodeSegmentInto parses a segment header into a caller-owned
// segment, reporting success. Bytes past the header are ignored.
func DecodeSegmentInto(s *Segment, b []byte) bool {
	if len(b) < segHeaderLen {
		return false
	}
	pooled := s.pooled
	*s = Segment{
		FlowID: binary.BigEndian.Uint32(b[0:4]),
		Seq:    binary.BigEndian.Uint64(b[4:12]),
		Ack:    binary.BigEndian.Uint64(b[12:20]),
		Len:    int(binary.BigEndian.Uint16(b[20:22])),
		pooled: pooled,
	}
	s.IsAck = b[22]&1 != 0
	s.Retx = b[22]&2 != 0
	return true
}

// WireSize returns the byte count the segment occupies on a link,
// including the virtual payload.
func (s *Segment) WireSize() int {
	if s.IsAck {
		return ackWireSize
	}
	return segHeaderLen + 20 + s.Len // header codec + IP-ish overhead + payload
}
