package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// The calendar front-end must be observationally identical to the
// retained heap-only scheduler: same fire order (the (at, seq) total
// order), same clock, same Len and next event time at every step. These tests
// drive both schedulers through identical schedules — including the
// adversarial shape the calendar exists for, bursts of events at the
// same timestamp — and require exact agreement.

// kernelPair drives a calendar kernel and a heap-only kernel through
// the same operations and compares their observable behaviour. Between
// them its operations reach every scheduling entry point the sharded
// city calls: At and After (also nested, from callbacks), Cancel,
// Pending, State, Run over successive horizons, nextAt, Len, Fired,
// NextSeq, and a checkpoint resume through BeginRestore and EventState.Restore.
type kernelPair struct {
	t        testing.TB
	seed     int64
	cal, ref *Kernel
	calFired []uint64 // event ids in fire order
	refFired []uint64
	calEvs   []Event // pending handles, same order in both
	refEvs   []Event
	ids      []uint64
	nextID   uint64
}

func newKernelPair(t testing.TB, seed int64) *kernelPair {
	p := &kernelPair{t: t, seed: seed, cal: NewKernel(seed), ref: NewKernel(seed)}
	p.ref.heapOnly = true
	return p
}

// restore resumes both schedulers from a checkpoint of their tracked
// events, the way a shard tile resumes: fresh kernels get
// constructor-time events, BeginRestore drops those and rewinds the
// clock, sequence counter and fired count, and every captured event is
// re-armed with its recorded (at, seq) through EventState.Restore, in
// the order order gives (a permutation of the tracked handles).
// Untracked events, such as recurring tickers, are not captured and do
// not survive.
func (p *kernelPair) restore(order []int) {
	p.check()
	now, seq, fired := p.cal.Now(), p.cal.NextSeq(), p.cal.Fired()
	states := make([]EventState, len(p.calEvs))
	for i, e := range p.calEvs {
		states[i] = CaptureEvent(e)
	}
	p.cal, p.ref = NewKernel(p.seed), NewKernel(p.seed)
	p.ref.heapOnly = true
	for _, k := range []*Kernel{p.cal, p.ref} {
		for _, d := range []time.Duration{0, bucketW, bucketSpan / 2, 2 * bucketSpan} {
			k.After(d, func() { p.t.Fatal("constructor event survived BeginRestore") })
		}
		k.BeginRestore(now, seq, fired)
	}
	for _, i := range order {
		id := p.ids[i]
		p.calEvs[i] = states[i].Restore(p.cal, Func(func() { p.calFired = append(p.calFired, id) }), 0)
		p.refEvs[i] = states[i].Restore(p.ref, Func(func() { p.refFired = append(p.refFired, id) }), 0)
	}
	p.check()
}

// schedule adds the same event to both kernels at now+d.
func (p *kernelPair) schedule(d time.Duration) {
	id := p.nextID
	p.nextID++
	p.calEvs = append(p.calEvs, p.cal.After(d, func() { p.calFired = append(p.calFired, id) }))
	p.refEvs = append(p.refEvs, p.ref.After(d, func() { p.refFired = append(p.refFired, id) }))
	p.ids = append(p.ids, id)
}

// cancel cancels the i-th tracked handle (mod the tracked count) in both.
func (p *kernelPair) cancel(i int) {
	if len(p.calEvs) == 0 {
		return
	}
	i %= len(p.calEvs)
	c := p.calEvs[i].Cancel()
	r := p.refEvs[i].Cancel()
	if c != r {
		p.t.Fatalf("cancel(%d): calendar=%v heap=%v", i, c, r)
	}
}

// run advances both kernels to the same horizon and compares everything.
func (p *kernelPair) run(until time.Duration) {
	cn := p.cal.Run(until)
	rn := p.ref.Run(until)
	if cn != rn {
		p.t.Fatalf("Run(%v): calendar now=%v heap now=%v", until, cn, rn)
	}
	p.check()
}

func (p *kernelPair) check() {
	if len(p.calFired) != len(p.refFired) {
		p.t.Fatalf("fired %d events on calendar, %d on heap", len(p.calFired), len(p.refFired))
	}
	for i := range p.calFired {
		if p.calFired[i] != p.refFired[i] {
			p.t.Fatalf("fire order diverges at %d: calendar id %d, heap id %d",
				i, p.calFired[i], p.refFired[i])
		}
	}
	if c, r := p.cal.Len(), p.ref.Len(); c != r {
		p.t.Fatalf("Len: calendar %d, heap %d", c, r)
	}
	ca, cok := nextAt(p.cal)
	ra, rok := nextAt(p.ref)
	if ca != ra || cok != rok {
		p.t.Fatalf("nextAt: calendar (%v,%v), heap (%v,%v)", ca, cok, ra, rok)
	}
	if p.cal.Fired() != p.ref.Fired() {
		p.t.Fatalf("Fired: calendar %d, heap %d", p.cal.Fired(), p.ref.Fired())
	}
	if c, r := p.cal.NextSeq(), p.ref.NextSeq(); c != r {
		p.t.Fatalf("NextSeq: calendar %d, heap %d", c, r)
	}
	if c, r := p.cal.Now(), p.ref.Now(); c != r {
		p.t.Fatalf("Now: calendar %v, heap %v", c, r)
	}
	for i := range p.calEvs {
		c, r := CaptureEvent(p.calEvs[i]), CaptureEvent(p.refEvs[i])
		if c != r || p.calEvs[i].Pending() != c.Pending || p.refEvs[i].Pending() != r.Pending {
			p.t.Fatalf("event %d: calendar %+v Pending %v, heap %+v Pending %v",
				p.ids[i], c, p.calEvs[i].Pending(), r, p.refEvs[i].Pending())
		}
	}
}

func TestCalendarMatchesHeapSameTimestampBurst(t *testing.T) {
	// The join-storm shape: thousands of events at the exact same
	// timestamp, where order is decided purely by insertion sequence.
	p := newKernelPair(t, 1)
	for i := 0; i < 5000; i++ {
		p.schedule(0)
	}
	for i := 0; i < 500; i++ {
		p.cancel(i * 7)
	}
	p.run(0)
	p.check()
	if len(p.calFired) != 4500 {
		t.Fatalf("fired %d, want 4500", len(p.calFired))
	}
}

func TestCalendarMatchesHeapRandomSchedules(t *testing.T) {
	// Randomized property test: mixed horizons (sub-bucket, in-window,
	// far-future), cancels, and nested scheduling from callbacks.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newKernelPair(t, seed)
		// Nested rescheduling: recurring timers that land across bucket
		// boundaries, like beacons and dwell slices do.
		for i := 0; i < 20; i++ {
			period := time.Duration(1+rng.Intn(400)) * time.Millisecond
			var calTick, refTick func()
			n := 0
			calTick = func() { p.cal.After(period, calTick) }
			refTick = func() {
				n++
				p.ref.After(period, refTick)
			}
			p.cal.After(period, calTick)
			p.ref.After(period, refTick)
		}
		horizon := time.Duration(0)
		for step := 0; step < 40; step++ {
			for i := 0; i < 200; i++ {
				switch rng.Intn(10) {
				case 0: // same-instant burst
					p.schedule(0)
				case 1, 2: // sub-bucket jitter
					p.schedule(time.Duration(rng.Intn(int(bucketW))))
				case 3, 4, 5: // in-window
					p.schedule(time.Duration(rng.Intn(int(bucketSpan))))
				case 6, 7: // beyond the window
					p.schedule(bucketSpan + time.Duration(rng.Intn(int(bucketSpan))))
				case 8:
					p.cancel(rng.Intn(1 << 16))
				case 9: // far future, heap-resident for many windows
					p.schedule(time.Duration(rng.Intn(5)) * time.Second)
				}
			}
			horizon += time.Duration(rng.Intn(int(200 * time.Millisecond)))
			p.run(horizon)
		}
	}
}

func TestCalendarMatchesHeapAcrossRestore(t *testing.T) {
	// Checkpoint resumes mid-schedule: pending events of every horizon
	// (the run being dispatched, staged buckets, the heap) are captured,
	// dropped with fresh kernels' constructor events, and re-armed in a
	// shuffled order — restore order must not matter, the recorded
	// (at, seq) decides — then both schedulers keep going.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newKernelPair(t, seed)
		horizon := time.Duration(0)
		restores := 0
		for step := 0; step < 30; step++ {
			for i := 0; i < 100; i++ {
				switch rng.Intn(6) {
				case 0:
					p.schedule(0)
				case 1:
					p.schedule(time.Duration(rng.Intn(int(bucketW))))
				case 2, 3:
					p.schedule(time.Duration(rng.Intn(int(bucketSpan))))
				case 4:
					p.schedule(bucketSpan + time.Duration(rng.Intn(int(bucketSpan))))
				case 5:
					p.cancel(rng.Intn(1 << 16))
				}
			}
			horizon += time.Duration(rng.Intn(int(100 * time.Millisecond)))
			p.run(horizon)
			if step%3 == 2 {
				p.restore(rng.Perm(len(p.calEvs)))
				restores++
			}
		}
		p.run(horizon + 10*time.Second)
		if restores == 0 || p.cal.Len() != 0 || len(p.calFired) == 0 {
			t.Fatalf("seed %d: %d restores, %d left queued, %d fired", seed, restores, p.cal.Len(), len(p.calFired))
		}
	}
}

// TestReserveKeepsHandlesAndOrder: Reserve moves the slot arena while
// events sit in all three queue structures (the dispatch run, staged
// buckets and the heap). Every handle must stay valid and the calendar
// must keep dispatching in the heap-only reference's order.
func TestReserveKeepsHandlesAndOrder(t *testing.T) {
	p := newKernelPair(t, 1)
	for i := 0; i < 40; i++ {
		p.schedule(time.Duration(i) * bucketW / 40)                  // the first bucket: the run
		p.schedule(bucketW + time.Duration(i)*bucketSpan/80)         // staged
		p.schedule(2*bucketSpan + time.Duration(i)*time.Millisecond) // the heap
	}
	p.run(bucketW / 2)
	if p.cal.runLive == 0 || p.cal.nStaged == 0 || len(p.cal.heap) == 0 {
		t.Fatalf("fixture leaves run %d, staged %d, heap %d: want events in all three",
			p.cal.runLive, p.cal.nStaged, len(p.cal.heap))
	}
	n, before := len(p.cal.slots), p.cal.SlotCap()
	for _, k := range []*Kernel{p.cal, p.ref} {
		k.Reserve(before / 2) // already there: no-op
		if k.SlotCap() != before {
			t.Fatalf("Reserve below capacity moved it from %d to %d", before, k.SlotCap())
		}
		k.Reserve(4 * before)
		if k.SlotCap() < 4*before || len(k.slots) != n {
			t.Fatalf("Reserve(%d): capacity %d, %d slots (had %d)", 4*before, k.SlotCap(), len(k.slots), n)
		}
	}
	p.check()
	for i := 0; i < 30; i++ {
		p.cancel(7 * i)
		p.schedule(time.Duration(i) * bucketSpan / 30)
	}
	p.run(4 * bucketSpan)
	if p.cal.Len() != 0 || len(p.calFired) == 0 {
		t.Fatalf("%d events left queued, %d fired", p.cal.Len(), len(p.calFired))
	}
}

func TestCalendarRestore(t *testing.T) {
	// BeginRestore must drain staged buckets and the run, and
	// EventState.Restore must re-arm through the calendar path with
	// recorded (at, seq) identity intact.
	k := NewKernel(1)
	var fired []int
	k.After(time.Millisecond, func() { fired = append(fired, 0) })
	e1 := k.After(5*time.Millisecond, func() { fired = append(fired, 1) })
	e2 := k.After(500*time.Millisecond, func() { fired = append(fired, 2) }) // far heap
	k.Run(time.Millisecond)
	st1, st2 := CaptureEvent(e1), CaptureEvent(e2)
	nextSeq, firedN := k.NextSeq(), k.Fired()

	k.BeginRestore(k.Now(), nextSeq, firedN)
	if k.Len() != 0 {
		t.Fatalf("Len after BeginRestore = %d", k.Len())
	}
	if e1.Pending() || e2.Pending() {
		t.Fatalf("handles still pending after BeginRestore")
	}
	st2.Restore(k, Func(func() { fired = append(fired, 2) }), 0)
	st1.Restore(k, Func(func() { fired = append(fired, 1) }), 0)
	k.RunAll()
	want := []int{0, 1, 2}
	if len(fired) != 3 || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// FuzzKernelOrdering feeds adversarial operation tapes to both
// schedulers: every byte pair is an op (schedule with some delta —
// zero deltas build same-timestamp bursts — cancel, advance, or resume
// from a checkpoint) and the two kernels must agree on fire order,
// clock, Len, nextAt and every handle's state throughout. Corpus seeds
// cover the storm shape.
func FuzzKernelOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 255})          // t=0 burst then drain
	f.Add([]byte{1, 10, 1, 10, 8, 1, 1, 10, 9, 200})       // jitter + cancel
	f.Add([]byte{3, 200, 3, 200, 9, 50, 3, 200, 9, 255})   // cross-window
	f.Add([]byte{3, 90, 6, 9, 1, 4, 9, 20, 10, 7, 9, 255}) // resume mid-window
	f.Fuzz(func(t *testing.T, tape []byte) {
		p := newKernelPair(t, 42)
		horizon := time.Duration(0)
		for i := 0; i+1 < len(tape) && i < 4096; i += 2 {
			op, arg := tape[i], tape[i+1]
			switch op % 11 {
			case 0: // same-instant burst member
				p.schedule(0)
			case 1, 2: // sub-bucket
				p.schedule(time.Duration(arg) * (bucketW / 256))
			case 3, 4: // in-window
				p.schedule(time.Duration(arg) * (bucketSpan / 256))
			case 5: // window boundary neighborhood
				p.schedule(bucketSpan - bucketW + time.Duration(arg)*(bucketW/64))
			case 6: // far future
				p.schedule(bucketSpan + time.Duration(arg)*time.Millisecond)
			case 7, 8:
				p.cancel(int(arg))
			case 9:
				horizon += time.Duration(arg) * time.Millisecond
				p.run(horizon)
			case 10:
				p.restore(rand.New(rand.NewSource(int64(arg))).Perm(len(p.calEvs)))
			}
		}
		p.run(horizon + time.Second)
		p.run(horizon + 10*time.Second)
	})
}

// Once the arena has grown to a workload's peak, the calendar must
// schedule, cancel and dispatch it without allocating: the staging
// buckets and the free list are threaded through the slots, so no
// per-bucket storage grows as the window turns. Each cycle stages a
// skewed, rotating load across all numBuckets buckets (the bucket that
// takes the most events moves every cycle), sends a share past the
// window to the heap, cancels every third staged event and drains.
func TestCalendarStagingAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	const perCycle = 4 * numBuckets
	evs := make([]Event, 0, perCycle)
	hot := 0
	cycle := func() {
		evs = evs[:0]
		hot = (hot + 37) % numBuckets
		for i := 0; i < perCycle; i++ {
			b := i % numBuckets
			if i >= numBuckets && i < 3*numBuckets {
				b = hot // half the load piles into one bucket
			}
			d := time.Duration(b)*bucketW + time.Duration(i)*time.Microsecond
			if i%16 == 0 {
				d += 2 * bucketSpan // beyond the window: the heap
			}
			evs = append(evs, k.After(d, fn))
		}
		for i := 0; i < len(evs); i += 3 {
			evs[i].Cancel()
		}
		k.Run(k.Now() + 4*bucketSpan)
		if k.Len() != 0 {
			t.Fatalf("cycle left %d events queued", k.Len())
		}
	}
	for i := 0; i < numBuckets; i++ {
		cycle() // grow the arena, the heap and the run to their peaks
	}
	if got := unsafe.Sizeof(slot{}); got != 48 {
		t.Errorf("slot is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Errorf("an Event handle is %d bytes, want 16", got)
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm calendar allocated %.1f times per cycle", allocs)
	}
}

// BenchmarkKernelBurst is the scheduler-only view of the join storm:
// a pile of same/near-timestamp events dispatched in order, calendar
// front-end against the retained heap. The calendar's flat
// sort-and-sweep replaces per-event heap sifts.
func BenchmarkKernelBurst(b *testing.B) {
	for _, v := range []struct {
		name     string
		heapOnly bool
	}{{"calendar", false}, {"heap-only", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			fn := func() {}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := NewKernel(1)
				k.heapOnly = v.heapOnly
				b.StartTimer()
				for j := 0; j < 100_000; j++ {
					// 100k events across the first millisecond, in
					// 10µs clumps — the storm's timer shape.
					k.At(time.Duration(j%100)*10*time.Microsecond, fn)
				}
				k.Run(time.Millisecond)
			}
		})
	}
}
