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
	c := s.Pool().list.Get()
	if s.Pool().Len() != 0 || c.set != nil || c.prev != nil || c.next != nil || c.p != nil || c.slot != 0 || c.gen != 0 {
		t.Fatalf("recycled carrier still armed: %d left free, set %v, linked %v, payload %v, event %d/%d",
			s.Pool().Len(), c.set != nil, c.prev != nil || c.next != nil, c.p != nil, c.slot, c.gen)
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
// in or sit in after removals.
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
	k.Run(7 * time.Millisecond) // one fires, so a carrier has left the list
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
	s.head.event().Cancel()
	if _, err := s.Capture(); err == nil {
		t.Fatal("captured a tracked carrier with no pending event")
	}
	if err := s.Restore(EventState{}, p[0], 0); err == nil {
		t.Fatal("restored a carrier with no pending event")
	}
}

// Once the pool and the kernel's arena are warm, arming a carrier and
// firing it allocates nothing. A carrier of a pointer packs into 48
// bytes: the set and the two list links, the payload, then the event's
// slot and generation and the kind byte.
func TestCarrierArmAndFireAllocatesNothing(t *testing.T) {
	if n := unsafe.Sizeof(carrier[*string]{}); n != 48 {
		t.Fatalf("a carrier of a pointer is %d bytes, want 48", n)
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

// listed walks the set's list forward, checks every back link and the
// count, and returns the payloads in list order.
func listed(t *testing.T, s *Carriers[*string]) []*string {
	t.Helper()
	var out []*string
	var prev *carrier[*string]
	for c := s.head; c != nil; c = c.next {
		if c.prev != prev || c.set != s {
			t.Fatalf("carrier %q: back link or set broken", *c.p)
		}
		out = append(out, c.p)
		prev = c
	}
	if len(out) != s.Len() {
		t.Fatalf("list holds %d carriers, Len reports %d", len(out), s.Len())
	}
	return out
}

// A carrier leaves the list from any position, and the rest stay
// linked in order: the head, one in the middle and the tail each fire
// in turn.
func TestCarrierUntrackHeadMiddleTail(t *testing.T) {
	k := NewKernel(1)
	s, log := newCarrierSet(k)
	p := payloads(5)
	// Arm so that the firing order visits the list's head (the last
	// armed), then its middle, then its tail (the first armed).
	ats := []time.Duration{3, 5, 2, 4, 1}
	for i, x := range p {
		s.ArmAt(ats[i]*time.Millisecond, x, 0)
	}
	if got, want := listed(t, s), []*string{p[4], p[3], p[2], p[1], p[0]}; !reflect.DeepEqual(got, want) {
		t.Fatalf("armed list %v, want newest first", got)
	}
	for _, step := range []struct {
		at   time.Duration
		gone *string
		left []*string
	}{
		{1, p[4], []*string{p[3], p[2], p[1], p[0]}}, // head
		{2, p[2], []*string{p[3], p[1], p[0]}},       // middle
		{3, p[0], []*string{p[3], p[1]}},             // tail
		{4, p[3], []*string{p[1]}},
		{5, p[1], nil},
	} {
		k.Run(step.at * time.Millisecond)
		if last := log.got[len(log.got)-1]; last.p != step.gone {
			t.Fatalf("at %v ms %q arrived, want %q", step.at, *last.p, *step.gone)
		}
		if got := listed(t, s); !reflect.DeepEqual(got, step.left) {
			t.Fatalf("at %v ms the list holds %v, want %v", step.at, got, step.left)
		}
	}
	if s.head != nil || s.Pool().Len() != 5 {
		t.Fatalf("after every fire: head %v, %d free; want nil, 5", s.head != nil, s.Pool().Len())
	}
}

// Drain after a carrier in the middle of the list has fired hands back
// exactly the others and leaves an empty list that arms again.
func TestCarrierDrainAfterMiddleFires(t *testing.T) {
	k := NewKernel(1)
	s, log := newCarrierSet(k)
	p := payloads(3)
	s.ArmAt(2*time.Millisecond, p[0], 0)
	s.ArmAt(1*time.Millisecond, p[1], 0) // the middle of [p2 p1 p0]
	s.ArmAt(3*time.Millisecond, p[2], 0)
	k.Run(time.Millisecond)
	var back []*string
	s.Drain(func(x *string) { back = append(back, x) })
	if want := []*string{p[2], p[0]}; !reflect.DeepEqual(back, want) || len(log.got) != 1 {
		t.Fatalf("drained %v with %d arrivals, want %v and 1", back, len(log.got), want)
	}
	if s.Len() != 0 || s.head != nil || s.Pool().Len() != 3 || k.Len() != 0 {
		t.Fatalf("after drain: %d live, %d free, %d queued; want 0, 3, 0", s.Len(), s.Pool().Len(), k.Len())
	}
	s.ArmAfter(time.Millisecond, p[1], 7)
	if got := listed(t, s); !reflect.DeepEqual(got, []*string{p[1]}) {
		t.Fatalf("re-armed list %v", got)
	}
	k.RunAll()
	if last := log.got[len(log.got)-1]; len(log.got) != 2 || last.p != p[1] || last.kind != 7 {
		t.Fatalf("arrivals after re-arm %+v", log.got)
	}
}

// The list order follows the arm order, but Capture does not: the same
// carriers armed in opposite orders capture to the same payload
// sequence.
func TestCarrierCaptureIndependentOfArmOrder(t *testing.T) {
	p := payloads(4)
	ats := []time.Duration{4, 1, 3, 2}
	capture := func(order []int) []*string {
		s, _ := newCarrierSet(NewKernel(1))
		for _, i := range order {
			s.ArmAt(ats[i]*time.Millisecond, p[i], 0)
		}
		got, err := s.Capture()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*string, len(got))
		for i, f := range got {
			out[i] = f.P
		}
		return out
	}
	fwd, rev := capture([]int{0, 1, 2, 3}), capture([]int{3, 2, 1, 0})
	if want := []*string{p[1], p[3], p[2], p[0]}; !reflect.DeepEqual(fwd, want) || !reflect.DeepEqual(rev, want) {
		t.Fatalf("captures %v and %v, want both %v", fwd, rev, want)
	}
}
