package tcpsim

import (
	"time"

	"spider/internal/sim"
)

// The sender's TCP parameters, standards-shaped.
const (
	mss          = 1448                   // payload bytes per segment
	initCwnd     = 2                      // initial congestion window, segments
	maxCwnd      = 64                     // window clamp, segments
	rtoMin       = 200 * time.Millisecond // Linux-style floor
	rtoMax       = 60 * time.Second       // back-off ceiling
	initialRTO   = time.Second            // before the first RTT sample
	dupAckThresh = 3
)

// unacked is one outstanding segment; a checkpoint stores the list
// as it is.
type unacked struct {
	Seq    uint64
	Len    int
	SentAt time.Duration
	Retx   bool
}

// Sender is the server-side endpoint of one bulk or finite download.
// The owner supplies transmit, which pushes a segment toward the client
// (through backhaul, AP, and air); ACKs return via HandleAck.
type Sender struct {
	kernel   *sim.Kernel
	flowID   uint32
	transmit func(*Segment)

	sc       senderScalars
	inflight []unacked

	rtoTimer sim.Event // fires through the sender itself (Fire)
	onDone   func()

	// segs, when set, recycles transmitted segments. The owner of the
	// transmit callback must Put each segment back once it is done
	// encoding it (a nil pool allocates fresh and never recycles).
	segs *SegPool
}

// senderScalars are a sender's plain evolving fields, checkpointed
// whole.
type senderScalars struct {
	// Remaining is bytes left to hand to the network; -1 = unbounded.
	Remaining int64
	NextSeq   uint64
	SndUna    uint64

	Cwnd     float64 // segments
	Ssthresh float64
	SRTT     time.Duration
	RTTVar   time.Duration
	RTO      time.Duration
	DupAcks  int
	LastAck  uint64

	Closed        bool
	LastTimeoutAt time.Duration

	// NewReno-style recovery state.
	InRecovery bool
	Recover    uint64

	Stats
}

// Stats counts what a sender did.
type Stats struct {
	SegmentsSent uint64
	// RetxSegments counts segments resent by retransmitHead — the
	// wasted-airtime share of SegmentsSent.
	RetxSegments uint64
	Timeouts     uint64
	FastRetx     uint64
	BytesAcked   uint64
}

// Add returns the field-wise sum of two snapshots.
func (t Stats) Add(o Stats) Stats {
	t.SegmentsSent += o.SegmentsSent
	t.RetxSegments += o.RetxSegments
	t.Timeouts += o.Timeouts
	t.FastRetx += o.FastRetx
	t.BytesAcked += o.BytesAcked
	return t
}

// NewSender creates a sender for one flow. size is the bytes to send
// (-1 for an unbounded bulk download). onDone (optional) fires when a
// finite flow is fully acknowledged.
func NewSender(k *sim.Kernel, flowID uint32, size int64, transmit func(*Segment), onDone func()) *Sender {
	if transmit == nil {
		panic("tcpsim: sender needs transmit")
	}
	return &Sender{
		kernel: k, flowID: flowID, transmit: transmit, onDone: onDone,
		sc: senderScalars{
			Remaining: size, Cwnd: initCwnd, Ssthresh: maxCwnd,
			RTO: initialRTO,
		},
	}
}

// SetSegPool points the sender at a segment free list. Segments handed
// to transmit are drawn from it; the transmit owner recycles them once
// encoded. Senders sharing a pool must live on the same kernel.
func (s *Sender) SetSegPool(p *SegPool) { s.segs = p }

// FlowID returns the flow identity, so owners can rebuild the sender
// (and its paired receiver) from a checkpoint.
func (s *Sender) FlowID() uint32 { return s.flowID }

// Stats returns the sender's counters (zero for a nil sender).
func (s *Sender) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return s.sc.Stats
}

// Done reports whether a finite flow has been fully acknowledged.
func (s *Sender) Done() bool { return s.sc.Closed }

// Start begins transmission.
func (s *Sender) Start() { s.pump() }

// Stop cancels timers and halts the flow (e.g. scenario teardown).
func (s *Sender) Stop() {
	s.sc.Closed = true
	s.rtoTimer.Cancel()
	s.rtoTimer = sim.Event{}
}

// pump transmits new segments while the window allows.
func (s *Sender) pump() {
	if s.sc.Closed {
		return
	}
	for float64(len(s.inflight)) < s.sc.Cwnd && s.sc.Remaining != 0 {
		l := mss
		if s.sc.Remaining > 0 && int64(l) > s.sc.Remaining {
			l = int(s.sc.Remaining)
		}
		seg := s.segs.Get()
		seg.FlowID, seg.Seq, seg.Len = s.flowID, s.sc.NextSeq, l
		s.inflight = append(s.inflight, unacked{Seq: s.sc.NextSeq, Len: l, SentAt: s.kernel.Now()})
		s.sc.NextSeq += uint64(l)
		if s.sc.Remaining > 0 {
			s.sc.Remaining -= int64(l)
		}
		s.sc.SegmentsSent++
		s.transmit(seg)
	}
	s.armRTO()
}

func (s *Sender) armRTO() {
	s.rtoTimer.Cancel()
	s.rtoTimer = sim.Event{}
	if len(s.inflight) == 0 || s.sc.Closed {
		return
	}
	s.rtoTimer = s.kernel.FireAfter(s.sc.RTO, s, 0)
}

// Fire implements sim.Handler: the sender's one timer, the
// retransmission timeout, fires through it. armRTO runs per ACK, so
// re-arming must not allocate.
func (s *Sender) Fire(uint8) { s.onRTO() }

// onRTO handles a retransmission timeout: multiplicative backoff, window
// collapse to one segment, and go-back-N — everything outstanding is
// presumed lost and transmission restarts from snd_una, pumped by slow
// start. This is the mechanism that makes long off-channel dwells
// expensive (§2.2.2).
func (s *Sender) onRTO() {
	s.rtoTimer = sim.Event{}
	if len(s.inflight) == 0 || s.sc.Closed {
		return
	}
	s.sc.Timeouts++
	s.sc.LastTimeoutAt = s.kernel.Now()
	s.sc.Ssthresh = s.sc.Cwnd / 2
	if s.sc.Ssthresh < 2 {
		s.sc.Ssthresh = 2
	}
	s.sc.Cwnd = 1
	s.sc.RTO *= 2
	if s.sc.RTO > rtoMax {
		s.sc.RTO = rtoMax
	}
	s.sc.DupAcks = 0
	s.sc.InRecovery = false
	// Go-back-N: return the outstanding bytes to the send buffer.
	if s.sc.Remaining > 0 {
		s.sc.Remaining += int64(s.sc.NextSeq - s.sc.SndUna)
	}
	s.sc.NextSeq = s.sc.SndUna
	s.inflight = s.inflight[:0]
	s.pump() // sends one segment (cwnd = 1) and re-arms the timer
}

// retransmitHead resends the oldest outstanding segment (loss recovery).
func (s *Sender) retransmitHead() {
	if len(s.inflight) == 0 {
		return
	}
	u := &s.inflight[0]
	u.Retx = true
	u.SentAt = s.kernel.Now()
	s.sc.SegmentsSent++
	s.sc.RetxSegments++
	seg := s.segs.Get()
	seg.FlowID, seg.Seq, seg.Len, seg.Retx = s.flowID, u.Seq, u.Len, true
	s.transmit(seg)
}

// HandleAck processes a cumulative ACK from the receiver.
func (s *Sender) HandleAck(seg *Segment) {
	if s.sc.Closed || !seg.IsAck || seg.FlowID != s.flowID {
		return
	}
	ack := seg.Ack
	if ack > s.sc.SndUna {
		newly := ack - s.sc.SndUna
		s.sc.BytesAcked += newly
		s.sc.SndUna = ack
		s.sc.DupAcks = 0
		// Drop fully acked segments. RTT-sample the OLDEST freed segment
		// that was neither retransmitted nor sent before the last timeout
		// (Karn's algorithm, bounded below the last timeout so go-back-N
		// ambiguity can't inject garbage). Sampling the oldest matters on
		// PSM-buffered links: it sees the full buffering delay, so the RTO
		// adapts above the off-channel absence instead of firing
		// spuriously every scheduling period.
		var sample unacked
		haveSample := false
		n := 0
		for n < len(s.inflight) && s.inflight[n].Seq+uint64(s.inflight[n].Len) <= ack {
			u := s.inflight[n]
			n++
			if !haveSample && !u.Retx && u.SentAt >= s.sc.LastTimeoutAt {
				sample, haveSample = u, true
			}
		}
		if n > 0 {
			// Shift-down pop keeps the backing array: the [1:] idiom
			// strands capacity and reallocates on every later append.
			copy(s.inflight, s.inflight[n:])
			s.inflight = s.inflight[:len(s.inflight)-n]
		}
		if haveSample {
			s.sampleRTT(s.kernel.Now() - sample.SentAt)
		}
		if s.sc.InRecovery {
			if ack >= s.sc.Recover {
				s.sc.InRecovery = false
			} else {
				// NewReno partial ack: the next hole is lost too.
				s.retransmitHead()
			}
		}
		// Congestion control.
		segsAcked := float64(newly) / float64(mss)
		if s.sc.Cwnd < s.sc.Ssthresh {
			s.sc.Cwnd += segsAcked // slow start
		} else {
			s.sc.Cwnd += segsAcked / s.sc.Cwnd // congestion avoidance
		}
		if s.sc.Cwnd > maxCwnd {
			s.sc.Cwnd = maxCwnd
		}
		if s.sc.Remaining == 0 && len(s.inflight) == 0 {
			s.Stop()
			if s.onDone != nil {
				s.onDone()
			}
			return
		}
		s.pump()
		return
	}
	// Duplicate ACK.
	if ack == s.sc.LastAck || ack == s.sc.SndUna {
		s.sc.DupAcks++
		if s.sc.DupAcks == dupAckThresh && len(s.inflight) > 0 && !s.sc.InRecovery {
			s.sc.FastRetx++
			s.sc.Ssthresh = s.sc.Cwnd / 2
			if s.sc.Ssthresh < 2 {
				s.sc.Ssthresh = 2
			}
			s.sc.Cwnd = s.sc.Ssthresh
			s.sc.InRecovery = true
			s.sc.Recover = s.sc.NextSeq
			s.retransmitHead()
			s.armRTO()
		}
	}
	s.sc.LastAck = ack
}

// sampleRTT applies Jacobson's estimator and recomputes the RTO.
func (s *Sender) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if s.sc.SRTT == 0 {
		s.sc.SRTT = rtt
		s.sc.RTTVar = rtt / 2
	} else {
		diff := s.sc.SRTT - rtt
		if diff < 0 {
			diff = -diff
		}
		s.sc.RTTVar = (3*s.sc.RTTVar + diff) / 4
		s.sc.SRTT = (7*s.sc.SRTT + rtt) / 8
	}
	s.sc.RTO = s.sc.SRTT + 4*s.sc.RTTVar
	if s.sc.RTO < rtoMin {
		s.sc.RTO = rtoMin
	}
	if s.sc.RTO > rtoMax {
		s.sc.RTO = rtoMax
	}
}

// Receiver is the client-side endpoint: cumulative ACKs with out-of-order
// buffering at flow granularity.
type Receiver struct {
	flowID uint32
	sc     receiverScalars
	// ooo holds out-of-order byte ranges, kept small and sorted.
	ooo []segRange
	// ack is the scratch segment HandleData returns: one ACK is in
	// flight per call, so the caller must encode it before the next.
	ack Segment
}

// receiverScalars are a receiver's plain evolving fields, checkpointed
// whole.
type receiverScalars struct {
	RcvNxt uint64
	// Delivered counts in-order bytes handed to the application.
	Delivered uint64
}

type segRange struct{ start, end uint64 }

// NewReceiver creates a receiver for a flow.
func NewReceiver(flowID uint32) *Receiver { return &Receiver{flowID: flowID} }

// HandleData ingests a data segment and returns the ACK to send back.
// Returns nil for foreign or pure-ACK segments. The returned segment is
// the receiver's scratch: valid until the next HandleData call, so
// encode (or copy) it before handing the receiver another segment.
func (r *Receiver) HandleData(seg *Segment) *Segment {
	if seg.IsAck || seg.FlowID != r.flowID {
		return nil
	}
	start, end := seg.Seq, seg.Seq+uint64(seg.Len)
	if end > r.sc.RcvNxt {
		r.insert(segRange{start, end})
		// Advance rcvNxt over contiguous ranges, then compact the slice
		// in place — re-slicing off the front would strand the backing
		// array and make every future insert reallocate.
		k := 0
		for k < len(r.ooo) && r.ooo[k].start <= r.sc.RcvNxt {
			if r.ooo[k].end > r.sc.RcvNxt {
				r.sc.Delivered += r.ooo[k].end - r.sc.RcvNxt
				r.sc.RcvNxt = r.ooo[k].end
			}
			k++
		}
		if k > 0 {
			n := copy(r.ooo, r.ooo[k:])
			r.ooo = r.ooo[:n]
		}
	}
	r.ack = Segment{FlowID: r.flowID, Ack: r.sc.RcvNxt, IsAck: true}
	return &r.ack
}

func (r *Receiver) insert(n segRange) {
	// Insertion sort by start; merge overlaps lazily in HandleData's scan.
	i := 0
	for i < len(r.ooo) && r.ooo[i].start < n.start {
		i++
	}
	r.ooo = append(r.ooo, segRange{})
	copy(r.ooo[i+1:], r.ooo[i:])
	r.ooo[i] = n
	// Merge neighbors.
	merged := r.ooo[:1]
	for _, x := range r.ooo[1:] {
		last := &merged[len(merged)-1]
		if x.start <= last.end {
			if x.end > last.end {
				last.end = x.end
			}
		} else {
			merged = append(merged, x)
		}
	}
	r.ooo = merged
}

// Delivered returns the in-order bytes handed to the application.
func (r *Receiver) Delivered() uint64 { return r.sc.Delivered }
