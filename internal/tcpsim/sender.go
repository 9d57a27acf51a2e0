package tcpsim

import (
	"time"

	"spider/internal/sim"
)

// Config holds the sender's TCP parameters.
type Config struct {
	MSS          int           // payload bytes per segment
	InitCwnd     int           // initial congestion window, segments
	MaxCwnd      int           // window clamp, segments
	RTOMin       time.Duration // Linux-style 200 ms floor
	RTOMax       time.Duration // back-off ceiling
	InitialRTO   time.Duration // before the first RTT sample
	DupAckThresh int
}

// DefaultConfig returns standards-shaped TCP parameters.
func DefaultConfig() Config {
	return Config{
		MSS:          1448,
		InitCwnd:     2,
		MaxCwnd:      64,
		RTOMin:       200 * time.Millisecond,
		RTOMax:       60 * time.Second,
		InitialRTO:   time.Second,
		DupAckThresh: 3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MSS <= 0 {
		c.MSS = d.MSS
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = d.InitCwnd
	}
	if c.MaxCwnd <= 0 {
		c.MaxCwnd = d.MaxCwnd
	}
	if c.RTOMin <= 0 {
		c.RTOMin = d.RTOMin
	}
	if c.RTOMax <= 0 {
		c.RTOMax = d.RTOMax
	}
	if c.InitialRTO <= 0 {
		c.InitialRTO = d.InitialRTO
	}
	if c.DupAckThresh <= 0 {
		c.DupAckThresh = d.DupAckThresh
	}
	return c
}

type unacked struct {
	seq    uint64
	len    int
	sentAt time.Duration
	retx   bool
}

// Sender is the server-side endpoint of one bulk or finite download.
// The owner supplies transmit, which pushes a segment toward the client
// (through backhaul, AP, and air); ACKs return via HandleAck.
type Sender struct {
	kernel   *sim.Kernel
	cfg      Config
	flowID   uint32
	transmit func(*Segment)

	// remaining is bytes left to hand to the network; -1 = unbounded.
	remaining int64
	nextSeq   uint64
	sndUna    uint64
	inflight  []unacked

	cwnd     float64 // segments
	ssthresh float64
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	backoff  int
	dupAcks  int
	lastAck  uint64

	rtoTimer      sim.Event
	onRTOFn       func() // cached method value: armRTO runs per ACK
	closed        bool
	onDone        func()
	lastTimeoutAt time.Duration

	// segs, when set, recycles transmitted segments. The owner of the
	// transmit callback must Put each segment back once it is done
	// encoding it (a nil pool allocates fresh and never recycles).
	segs *SegPool

	// NewReno-style recovery state.
	inRecovery bool
	recover    uint64

	// Stats.
	Timeouts     uint64
	FastRetx     uint64
	SegmentsSent uint64
	// RetxSegments counts segments resent by retransmitHead — the
	// wasted-airtime share of SegmentsSent.
	RetxSegments uint64
	BytesAcked   uint64
}

// NewSender creates a sender for one flow. size is the bytes to send
// (-1 for an unbounded bulk download). onDone (optional) fires when a
// finite flow is fully acknowledged.
func NewSender(k *sim.Kernel, cfg Config, flowID uint32, size int64, transmit func(*Segment), onDone func()) *Sender {
	if transmit == nil {
		panic("tcpsim: sender needs transmit")
	}
	c := cfg.withDefaults()
	s := &Sender{
		kernel: k, cfg: c, flowID: flowID, transmit: transmit,
		remaining: size, cwnd: float64(c.InitCwnd), ssthresh: float64(c.MaxCwnd),
		rto: c.InitialRTO, onDone: onDone,
	}
	s.onRTOFn = s.onRTO
	return s
}

// SetSegPool points the sender at a segment free list. Segments handed
// to transmit are drawn from it; the transmit owner recycles them once
// encoded. Senders sharing a pool must live on the same kernel.
func (s *Sender) SetSegPool(p *SegPool) { s.segs = p }

// FlowID returns the flow identity, so owners can rebuild the sender
// (and its paired receiver) from a checkpoint.
func (s *Sender) FlowID() uint32 { return s.flowID }

// Config returns the effective configuration.
func (s *Sender) Config() Config { return s.cfg }

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() time.Duration { return s.rto }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() time.Duration { return s.srtt }

// Done reports whether a finite flow has been fully acknowledged.
func (s *Sender) Done() bool { return s.closed }

// NextSeq returns the next byte to be sent.
func (s *Sender) NextSeq() uint64 { return s.nextSeq }

// Start begins transmission.
func (s *Sender) Start() { s.pump() }

// Stop cancels timers and halts the flow (e.g. scenario teardown).
func (s *Sender) Stop() {
	s.closed = true
	s.rtoTimer.Cancel()
	s.rtoTimer = sim.Event{}
}

// pump transmits new segments while the window allows.
func (s *Sender) pump() {
	if s.closed {
		return
	}
	for float64(len(s.inflight)) < s.cwnd && s.remaining != 0 {
		l := s.cfg.MSS
		if s.remaining > 0 && int64(l) > s.remaining {
			l = int(s.remaining)
		}
		seg := s.segs.Get()
		seg.FlowID, seg.Seq, seg.Len = s.flowID, s.nextSeq, l
		s.inflight = append(s.inflight, unacked{seq: s.nextSeq, len: l, sentAt: s.kernel.Now()})
		s.nextSeq += uint64(l)
		if s.remaining > 0 {
			s.remaining -= int64(l)
		}
		s.SegmentsSent++
		s.transmit(seg)
	}
	s.armRTO()
}

func (s *Sender) armRTO() {
	s.rtoTimer.Cancel()
	s.rtoTimer = sim.Event{}
	if len(s.inflight) == 0 || s.closed {
		return
	}
	s.rtoTimer = s.kernel.After(s.rto, s.onRTOFn)
}

// onRTO handles a retransmission timeout: multiplicative backoff, window
// collapse to one segment, and go-back-N — everything outstanding is
// presumed lost and transmission restarts from snd_una, pumped by slow
// start. This is the mechanism that makes long off-channel dwells
// expensive (§2.2.2).
func (s *Sender) onRTO() {
	s.rtoTimer = sim.Event{}
	if len(s.inflight) == 0 || s.closed {
		return
	}
	s.Timeouts++
	s.lastTimeoutAt = s.kernel.Now()
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.backoff++
	s.rto *= 2
	if s.rto > s.cfg.RTOMax {
		s.rto = s.cfg.RTOMax
	}
	s.dupAcks = 0
	s.inRecovery = false
	// Go-back-N: return the outstanding bytes to the send buffer.
	if s.remaining > 0 {
		s.remaining += int64(s.nextSeq - s.sndUna)
	}
	s.nextSeq = s.sndUna
	s.inflight = s.inflight[:0]
	s.pump() // sends one segment (cwnd = 1) and re-arms the timer
}

// retransmitHead resends the oldest outstanding segment (loss recovery).
func (s *Sender) retransmitHead() {
	if len(s.inflight) == 0 {
		return
	}
	u := &s.inflight[0]
	u.retx = true
	u.sentAt = s.kernel.Now()
	s.SegmentsSent++
	s.RetxSegments++
	seg := s.segs.Get()
	seg.FlowID, seg.Seq, seg.Len, seg.Retx = s.flowID, u.seq, u.len, true
	s.transmit(seg)
}

// HandleAck processes a cumulative ACK from the receiver.
func (s *Sender) HandleAck(seg *Segment) {
	if s.closed || !seg.IsAck || seg.FlowID != s.flowID {
		return
	}
	ack := seg.Ack
	if ack > s.sndUna {
		newly := ack - s.sndUna
		s.BytesAcked += newly
		s.sndUna = ack
		s.dupAcks = 0
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
		for n < len(s.inflight) && s.inflight[n].seq+uint64(s.inflight[n].len) <= ack {
			u := s.inflight[n]
			n++
			if !haveSample && !u.retx && u.sentAt >= s.lastTimeoutAt {
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
			s.sampleRTT(s.kernel.Now() - sample.sentAt)
		}
		s.backoff = 0
		if s.inRecovery {
			if ack >= s.recover {
				s.inRecovery = false
			} else {
				// NewReno partial ack: the next hole is lost too.
				s.retransmitHead()
			}
		}
		// Congestion control.
		segsAcked := float64(newly) / float64(s.cfg.MSS)
		if s.cwnd < s.ssthresh {
			s.cwnd += segsAcked // slow start
		} else {
			s.cwnd += segsAcked / s.cwnd // congestion avoidance
		}
		if s.cwnd > float64(s.cfg.MaxCwnd) {
			s.cwnd = float64(s.cfg.MaxCwnd)
		}
		if s.remaining == 0 && len(s.inflight) == 0 {
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
	if ack == s.lastAck || ack == s.sndUna {
		s.dupAcks++
		if s.dupAcks == s.cfg.DupAckThresh && len(s.inflight) > 0 && !s.inRecovery {
			s.FastRetx++
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < 2 {
				s.ssthresh = 2
			}
			s.cwnd = s.ssthresh
			s.inRecovery = true
			s.recover = s.nextSeq
			s.retransmitHead()
			s.armRTO()
		}
	}
	s.lastAck = ack
}

// sampleRTT applies Jacobson's estimator and recomputes the RTO.
func (s *Sender) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.RTOMin {
		s.rto = s.cfg.RTOMin
	}
	if s.rto > s.cfg.RTOMax {
		s.rto = s.cfg.RTOMax
	}
}

// Receiver is the client-side endpoint: cumulative ACKs with out-of-order
// buffering at flow granularity.
type Receiver struct {
	flowID uint32
	rcvNxt uint64
	// ooo holds out-of-order byte ranges, kept small and sorted.
	ooo []segRange
	// Delivered counts in-order bytes handed to the application.
	Delivered uint64
	// ack is the scratch segment HandleData returns: one ACK is in
	// flight per call, so the caller must encode it before the next.
	ack Segment
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
	if end > r.rcvNxt {
		r.insert(segRange{start, end})
		// Advance rcvNxt over contiguous ranges, then compact the slice
		// in place — re-slicing off the front would strand the backing
		// array and make every future insert reallocate.
		k := 0
		for k < len(r.ooo) && r.ooo[k].start <= r.rcvNxt {
			if r.ooo[k].end > r.rcvNxt {
				r.Delivered += r.ooo[k].end - r.rcvNxt
				r.rcvNxt = r.ooo[k].end
			}
			k++
		}
		if k > 0 {
			n := copy(r.ooo, r.ooo[k:])
			r.ooo = r.ooo[:n]
		}
	}
	r.ack = Segment{FlowID: r.flowID, Ack: r.rcvNxt, IsAck: true}
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

// NextExpected returns the receiver's cumulative position.
func (r *Receiver) NextExpected() uint64 { return r.rcvNxt }
