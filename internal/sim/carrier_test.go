package sim

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// arrival is one payload a carrier handed to its owner.
type arrival struct {
	p    *string
	kind uint8
	at   time.Duration
}

// carrierLog owns a carrier set and logs what arrives.
type carrierLog struct {
	k   *Kernel
	got []arrival
}

func (l *carrierLog) Arrive(p *string, kind uint8) {
	l.got = append(l.got, arrival{p, kind, l.k.Now()})
}

func newCarrierSet(k *Kernel) (*Carriers[*string], *carrierLog) {
	log := &carrierLog{k: k}
	s := new(Carriers[*string])
	s.Init(k, log)
	return s, log
}

// payloads returns n distinct payloads.
func payloads(n int) []*string {
	out := make([]*string, n)
	for i := range out {
		v := string(rune('a' + i))
		out[i] = &v
	}
	return out
}

// A fired carrier leaves the set and goes back to the pool holding
// nothing, before the owner gets the payload and kind.
func TestCarrierFireUntracksAndRecycles(t *testing.T) {
	k := NewKernel(1)
	s, log := newCarrierSet(k)
	p := payloads(2)
	s.ArmAfter(10*time.Millisecond, p[0], 3)
	s.ArmAt(5*time.Millisecond, p[1], 4)
	if s.Len() != 2 || s.Pool().Len() != 0 {
		t.Fatalf("armed: %d live, %d free; want 2, 0", s.Len(), s.Pool().Len())
	}
	k.Run(7 * time.Millisecond)
	if want := []arrival{{p[1], 4, 5 * time.Millisecond}}; !reflect.DeepEqual(log.got, want) {
		t.Fatalf("arrivals %+v, want %+v", log.got, want)
	}
	if s.Len() != 1 || s.Pool().Len() != 1 {
		t.Fatalf("after one fire: %d live, %d free; want 1, 1", s.Len(), s.Pool().Len())
	}
	c, fresh := s.Pool().list.Get()
	if fresh || c.set != nil || c.p != nil || c.ev.Pending() {
		t.Fatalf("recycled carrier still armed: fresh %v, set %v, payload %v, pending %v",
			fresh, c.set != nil, c.p != nil, c.ev.Pending())
	}
	s.Pool().list.Put(c)
	k.RunAll()
	if len(log.got) != 2 || log.got[1] != (arrival{p[0], 3, 10 * time.Millisecond}) || s.Len() != 0 || s.Pool().Len() != 2 {
		t.Fatalf("after both fires: arrivals %+v, %d live, %d free", log.got, s.Len(), s.Pool().Len())
	}
}

// Drain cancels every carrier and hands back the payloads; the owner
// gets none of them.
func TestCarrierDrainCancelsAndReturnsPayloads(t *testing.T) {
	k := NewKernel(1)
	s, log := newCarrierSet(k)
	p := payloads(3)
	for i, x := range p {
		s.ArmAfter(time.Duration(i+1)*time.Millisecond, x, 0)
	}
	var back []*string
	s.Drain(func(x *string) { back = append(back, x) })
	if len(back) != 3 || s.Len() != 0 || s.Pool().Len() != 3 || k.Len() != 0 {
		t.Fatalf("drained %d payloads, %d live, %d free, %d queued; want 3, 0, 3, 0",
			len(back), s.Len(), s.Pool().Len(), k.Len())
	}
	seen := map[*string]bool{}
	for _, x := range back {
		seen[x] = true
	}
	for _, x := range p {
		if !seen[x] {
			t.Fatalf("payload %q not returned", *x)
		}
	}
	k.RunAll()
	if len(log.got) != 0 {
		t.Fatalf("drained carriers arrived: %+v", log.got)
	}
}

// armShuffled arms one carrier per payload, at instants out of order
// and with two at the same instant, whose seq then decides.
func armShuffled(s *Carriers[*string], p []*string) {
	ats := []time.Duration{30, 10, 20, 10, 5}
	for i, x := range p {
		s.ArmAt(ats[i%len(ats)]*time.Millisecond, x, uint8(i))
	}
}

// Capture lists carriers by (At, Seq), whatever order they were armed
// in or sit in after swap-removes.
func TestCarrierCaptureInFiringOrder(t *testing.T) {
	k := NewKernel(1)
	s, log := newCarrierSet(k)
	p := payloads(5)
	armShuffled(s, p)
	got, err := s.Capture()
	if err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if len(got) != len(log.got) {
		t.Fatalf("captured %d carriers, %d arrived", len(got), len(log.got))
	}
	for i, f := range got {
		if i > 0 && !got[i-1].Ev.Before(f.Ev) {
			t.Fatalf("capture %d (%+v) not after %d (%+v)", i, f.Ev, i-1, got[i-1].Ev)
		}
		if a := log.got[i]; a.p != f.P || a.kind != f.Kind || a.at != f.Ev.At {
			t.Fatalf("capture %d is %q kind %d at %v; the kernel fired %q kind %d at %v",
				i, *f.P, f.Kind, f.Ev.At, *a.p, a.kind, a.at)
		}
	}
}

// A captured set restored into a rewound kernel captures the same, and
// its carriers arrive as the original's do.
func TestCarrierCaptureRestoreRoundTrip(t *testing.T) {
	k := NewKernel(1)
	s, log := newCarrierSet(k)
	p := payloads(5)
	armShuffled(s, p)
	k.Run(7 * time.Millisecond) // one fires, so a swap-remove has happened
	want, err := s.Capture()
	if err != nil {
		t.Fatal(err)
	}

	k2 := NewKernel(1)
	k2.BeginRestore(k.Now(), k.NextSeq(), k.Fired())
	s2, log2 := newCarrierSet(k2)
	for _, f := range want {
		if err := s2.Restore(f.Ev, f.P, f.Kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := k2.RestoreErr(); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored set captures %+v, want %+v", got, want)
	}
	k.RunAll()
	k2.RunAll()
	if !reflect.DeepEqual(log2.got, log.got[1:]) {
		t.Fatalf("restored arrivals %+v, want %+v", log2.got, log.got[1:])
	}
}

// A registered carrier whose event is gone no longer describes what is
// in flight: Capture refuses it, and Restore refuses a record that is
// not pending.
func TestCarrierNotPendingRefused(t *testing.T) {
	k := NewKernel(1)
	s, _ := newCarrierSet(k)
	p := payloads(2)
	s.ArmAfter(time.Millisecond, p[0], 0)
	s.ArmAfter(2*time.Millisecond, p[1], 0)
	s.live[1].ev.Cancel()
	if _, err := s.Capture(); err == nil {
		t.Fatal("captured a tracked carrier with no pending event")
	}
	if err := s.Restore(EventState{}, p[0], 0); err == nil {
		t.Fatal("restored a carrier with no pending event")
	}
}

// Once the pool and the kernel's arena are warm, arming a carrier and
// firing it allocates nothing. A carrier of a pointer packs into 40
// bytes.
func TestCarrierArmAndFireAllocatesNothing(t *testing.T) {
	if n := unsafe.Sizeof(carrier[*string]{}); n != 40 {
		t.Fatalf("a carrier of a pointer is %d bytes, want 40", n)
	}
	k := NewKernel(1)
	s, log := newCarrierSet(k)
	p := payloads(1)[0]
	log.got = make([]arrival, 0, 1024)
	for i := 0; i < 4; i++ {
		s.ArmAfter(time.Millisecond, p, 0)
	}
	k.RunAll()
	allocs := testing.AllocsPerRun(100, func() {
		s.ArmAfter(time.Millisecond, p, 1)
		s.ArmAt(k.Now()+2*time.Millisecond, p, 2)
		k.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("arm and fire allocated %.1f times per round", allocs)
	}
	if s.Pool().Len() != 4 {
		t.Fatalf("%d carriers free, want the 4 the warm-up carved", s.Pool().Len())
	}
}
