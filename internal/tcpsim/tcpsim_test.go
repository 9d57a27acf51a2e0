package tcpsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/backhaul"
	"spider/internal/sim"
	"spider/internal/wifi"
)

func TestSegmentRoundTrip(t *testing.T) {
	in := &Segment{FlowID: 7, Seq: 1 << 40, Ack: 12345, Len: 1448, IsAck: false, Retx: true}
	var out Segment
	if !DecodeSegmentInto(&out, in.AppendEncode(nil)) {
		t.Fatal("decode failed")
	}
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
}

func TestPropertySegmentRoundTrip(t *testing.T) {
	f := func(id uint32, seq, ack uint64, l uint16, isAck, retx bool) bool {
		in := &Segment{FlowID: id, Seq: seq, Ack: ack, Len: int(l), IsAck: isAck, Retx: retx}
		var out Segment
		return DecodeSegmentInto(&out, in.AppendEncode(nil)) && reflect.DeepEqual(*in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSegmentShort(t *testing.T) {
	if DecodeSegmentInto(&Segment{}, []byte{1, 2}) {
		t.Fatal("short segment decoded")
	}
}

func TestWireSize(t *testing.T) {
	data := &Segment{Len: 1448}
	ack := &Segment{IsAck: true}
	if data.WireSize() <= 1448 {
		t.Fatal("data wire size missing headers")
	}
	if ack.WireSize() != 40 {
		t.Fatalf("ack wire size = %d", ack.WireSize())
	}
}

func TestSegmentFrameRoundTrip(t *testing.T) {
	s := &Segment{FlowID: 3, Seq: 100, Len: 500}
	f := &wifi.Frame{
		Type: wifi.TypeData, SA: wifi.Addr{1}, DA: wifi.Addr{2}, BSSID: wifi.Addr{2},
		Body: &wifi.DataBody{Proto: wifi.ProtoTCP, Header: s.AppendEncode(nil), VirtualLen: uint16(s.Len + 20)},
	}
	back, err := wifi.Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	db, ok := back.Body.(*wifi.DataBody)
	got := &Segment{}
	if !ok || db.Proto != wifi.ProtoTCP || !DecodeSegmentInto(got, db.Header) || !reflect.DeepEqual(s, got) {
		t.Fatalf("frame round trip: %+v", got)
	}
}

// carry sends size bytes one way across l and runs fn when they arrive;
// it reports whether the link took them.
func carry(k *sim.Kernel, l *backhaul.Link, downstream bool, size int, fn func()) bool {
	at, ok := l.Send(downstream, size)
	if ok {
		k.FireAt(at, sim.Func(fn), 0)
	}
	return ok
}

// pipe is a bidirectional test network with fixed latency, a rate-shaped
// downlink, and programmable blackouts and drops.
type pipe struct {
	k        *sim.Kernel
	link     *backhaul.Link
	latency  time.Duration
	sender   *Sender
	receiver *Receiver
	blackout func() bool // true = drop everything right now
	dropData func(seq *Segment) bool
	done     bool
}

func newPipe(t *testing.T, rateKbps int) *pipe {
	t.Helper()
	p := &pipe{
		k:       sim.NewKernel(1),
		latency: 10 * time.Millisecond,
	}
	p.link = backhaul.NewLink(p.k, backhaul.Config{RateKbps: rateKbps, Latency: p.latency, QueueBytes: 128 * 1024})
	p.receiver = NewReceiver(1)
	return p
}

func (p *pipe) start(size int64) {
	p.sender = NewSender(p.k, 1, size, func(seg *Segment) {
		if p.blackout != nil && p.blackout() {
			return
		}
		if p.dropData != nil && p.dropData(seg) {
			return
		}
		carry(p.k, p.link, true, seg.WireSize(), func() {
			if p.blackout != nil && p.blackout() {
				return
			}
			ack := p.receiver.HandleData(seg)
			if ack == nil {
				return
			}
			// HandleData returns the receiver's scratch ACK, which its
			// next segment overwrites; the ACK in flight is a copy, as the
			// encoded frame is in a world.
			a := *ack
			carry(p.k, p.link, false, a.WireSize(), func() {
				if p.blackout != nil && p.blackout() {
					return
				}
				p.sender.HandleAck(&a)
			})
		})
	}, func() { p.done = true })
	p.sender.Start()
}

func TestBulkFlowSaturatesBottleneck(t *testing.T) {
	p := newPipe(t, 2000)
	p.start(-1)
	p.k.Run(20 * time.Second)
	gotKbps := float64(p.receiver.Delivered()*8) / 20 / 1000
	if gotKbps < 1700 || gotKbps > 2100 {
		t.Fatalf("bulk throughput %.0f kbps over a 2000 kbps bottleneck", gotKbps)
	}
	if p.sender.Stats().Timeouts != 0 {
		t.Fatalf("clean path produced %d timeouts", p.sender.Stats().Timeouts)
	}
}

func TestFiniteFlowCompletes(t *testing.T) {
	p := newPipe(t, 2000)
	p.start(100_000)
	p.k.Run(time.Minute)
	if !p.done {
		t.Fatal("finite flow never completed")
	}
	if p.receiver.Delivered() != 100_000 {
		t.Fatalf("delivered %d bytes, want 100000", p.receiver.Delivered())
	}
	if !p.sender.Done() {
		t.Fatal("sender not marked done")
	}
}

func TestLossRecoveredByFastRetransmit(t *testing.T) {
	p := newPipe(t, 2000)
	r := rand.New(rand.NewSource(4))
	p.dropData = func(seg *Segment) bool { return !seg.Retx && r.Float64() < 0.02 }
	p.start(-1)
	p.k.Run(30 * time.Second)
	if p.sender.Stats().FastRetx == 0 {
		t.Fatal("no fast retransmits under loss")
	}
	gotKbps := float64(p.receiver.Delivered()*8) / 30 / 1000
	if gotKbps < 800 {
		t.Fatalf("throughput collapsed to %.0f kbps under 2%% loss", gotKbps)
	}
}

func TestBlackoutCausesTimeoutsAndBackoff(t *testing.T) {
	p := newPipe(t, 2000)
	dark := false
	p.blackout = func() bool { return dark }
	p.start(-1)
	p.k.Run(5 * time.Second)
	preTimeouts := p.sender.Stats().Timeouts
	dark = true
	p.k.Run(15 * time.Second) // 10s blackout
	if p.sender.Stats().Timeouts <= preTimeouts {
		t.Fatal("no RTO during blackout")
	}
	if p.sender.sc.RTO <= 400*time.Millisecond {
		t.Fatalf("RTO %v did not back off", p.sender.sc.RTO)
	}
	if p.sender.sc.Cwnd != 1 {
		t.Fatalf("cwnd %v after timeouts, want 1", p.sender.sc.Cwnd)
	}
	// Recovery.
	dark = false
	before := p.receiver.Delivered()
	p.k.Run(45 * time.Second)
	if p.receiver.Delivered() <= before {
		t.Fatal("flow never recovered after blackout")
	}
}

func TestRTTEstimator(t *testing.T) {
	p := newPipe(t, 8000)
	p.start(-1)
	p.k.Run(5 * time.Second)
	// Path RTT = 2×10ms + serialization; srtt should be in [20ms, 120ms].
	if p.sender.sc.SRTT < 20*time.Millisecond || p.sender.sc.SRTT > 120*time.Millisecond {
		t.Fatalf("srtt %v implausible for ~20ms path", p.sender.sc.SRTT)
	}
	if p.sender.sc.RTO < rtoMin {
		t.Fatalf("RTO %v below floor", p.sender.sc.RTO)
	}
}

func TestCwndClampedAtMax(t *testing.T) {
	p := newPipe(t, 100_000) // effectively infinite
	p.start(-1)
	p.k.Run(10 * time.Second)
	if p.sender.sc.Cwnd > maxCwnd {
		t.Fatalf("cwnd %v exceeded clamp %d", p.sender.sc.Cwnd, maxCwnd)
	}
	if p.sender.sc.Cwnd < maxCwnd {
		t.Fatalf("cwnd %v never reached the clamp %d: the test cannot see it", p.sender.sc.Cwnd, maxCwnd)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	p := newPipe(t, 100_000)
	p.start(-1)
	// After one RTT the window should have grown beyond the initial 2.
	p.k.Run(100 * time.Millisecond)
	if p.sender.sc.Cwnd <= 2 {
		t.Fatalf("cwnd %v after 5 RTTs, slow start inert", p.sender.sc.Cwnd)
	}
}

func TestStopSilencesSender(t *testing.T) {
	p := newPipe(t, 2000)
	p.start(-1)
	p.k.Run(time.Second)
	sent := p.sender.Stats().SegmentsSent
	p.sender.Stop()
	p.k.Run(10 * time.Second)
	if p.sender.Stats().SegmentsSent != sent {
		t.Fatal("sender transmitted after Stop")
	}
}

func TestReceiverInOrderDelivery(t *testing.T) {
	r := NewReceiver(1)
	ack := r.HandleData(&Segment{FlowID: 1, Seq: 0, Len: 100})
	if ack.Ack != 100 || r.Delivered() != 100 {
		t.Fatalf("ack=%d delivered=%d", ack.Ack, r.Delivered())
	}
	ack = r.HandleData(&Segment{FlowID: 1, Seq: 100, Len: 50})
	if ack.Ack != 150 {
		t.Fatalf("cumulative ack=%d", ack.Ack)
	}
}

func TestReceiverOutOfOrderAssembly(t *testing.T) {
	r := NewReceiver(1)
	ack := r.HandleData(&Segment{FlowID: 1, Seq: 100, Len: 100}) // hole at 0
	if ack.Ack != 0 {
		t.Fatalf("ack for out-of-order = %d, want 0", ack.Ack)
	}
	if r.Delivered() != 0 {
		t.Fatal("delivered out-of-order bytes")
	}
	ack = r.HandleData(&Segment{FlowID: 1, Seq: 0, Len: 100}) // fill hole
	if ack.Ack != 200 || r.Delivered() != 200 {
		t.Fatalf("after fill: ack=%d delivered=%d", ack.Ack, r.Delivered())
	}
}

func TestReceiverDuplicateDataNotDoubleCounted(t *testing.T) {
	r := NewReceiver(1)
	r.HandleData(&Segment{FlowID: 1, Seq: 0, Len: 100})
	ack := r.HandleData(&Segment{FlowID: 1, Seq: 0, Len: 100})
	if ack.Ack != 100 || r.Delivered() != 100 {
		t.Fatalf("duplicate counted: ack=%d delivered=%d", ack.Ack, r.Delivered())
	}
}

func TestReceiverOverlappingSegments(t *testing.T) {
	r := NewReceiver(1)
	r.HandleData(&Segment{FlowID: 1, Seq: 50, Len: 100})  // [50,150) buffered
	r.HandleData(&Segment{FlowID: 1, Seq: 100, Len: 100}) // [100,200) overlaps
	ack := r.HandleData(&Segment{FlowID: 1, Seq: 0, Len: 60})
	if ack.Ack != 200 || r.Delivered() != 200 {
		t.Fatalf("overlap merge: ack=%d delivered=%d", ack.Ack, r.Delivered())
	}
}

func TestReceiverIgnoresForeignFlow(t *testing.T) {
	r := NewReceiver(1)
	if r.HandleData(&Segment{FlowID: 2, Seq: 0, Len: 100}) != nil {
		t.Fatal("foreign flow acked")
	}
	if r.HandleData(&Segment{FlowID: 1, IsAck: true, Ack: 5}) != nil {
		t.Fatal("pure ACK acked")
	}
}

// Property: any permutation of segments yields full in-order delivery.
func TestPropertyReceiverReassembly(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		rcv := NewReceiver(1)
		n := 20
		perm := r.Perm(n)
		for _, i := range perm {
			rcv.HandleData(&Segment{FlowID: 1, Seq: uint64(i * 100), Len: 100})
		}
		if rcv.Delivered() != uint64(n*100) || rcv.sc.RcvNxt != uint64(n*100) {
			t.Fatalf("perm %v: delivered=%d", perm, rcv.Delivered())
		}
	}
}

func BenchmarkSenderReceiverLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		link := backhaul.NewLink(k, backhaul.Config{RateKbps: 10000, Latency: 5 * time.Millisecond, QueueBytes: 1 << 20})
		rcv := NewReceiver(1)
		var snd *Sender
		snd = NewSender(k, 1, 500_000, func(seg *Segment) {
			carry(k, link, true, seg.WireSize(), func() {
				if ack := rcv.HandleData(seg); ack != nil {
					carry(k, link, false, ack.WireSize(), func() { snd.HandleAck(ack) })
				}
			})
		}, nil)
		snd.Start()
		k.Run(time.Minute)
	}
}
