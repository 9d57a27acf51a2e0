package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimestampOrder(t *testing.T) {
	k := NewKernel(1)
	var got []time.Duration
	for _, d := range []time.Duration{50, 10, 30, 20, 40} {
		d := d * time.Millisecond
		k.At(d, func() { got = append(got, k.Now()) })
	}
	k.Run(time.Second)
	want := []time.Duration{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
}

func TestSimultaneousEventsFireInInsertionOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order broken: got %v", got)
		}
	}
}

func TestAfterSchedulesRelativeToNow(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.At(100*time.Millisecond, func() {
		k.After(25*time.Millisecond, func() { at = k.Now() })
	})
	k.Run(time.Second)
	if at != 125*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 125ms", at)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.After(-time.Second, func() { fired = true })
	k.Run(time.Second)
	if !fired {
		t.Fatal("negative After never fired")
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling into the past")
			}
		}()
		k.At(time.Millisecond, func() {})
	})
	k.Run(2 * time.Second)
}

func TestCancelPreventsFiring(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(10*time.Millisecond, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	k.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireReturnsFalse(t *testing.T) {
	k := NewKernel(1)
	e := k.At(10*time.Millisecond, func() {})
	k.Run(time.Second)
	if e.Cancel() {
		t.Fatal("Cancel after firing returned true")
	}
	if e.Pending() {
		t.Fatal("fired event still pending")
	}
}

func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	k := NewKernel(1)
	var got []time.Duration
	var events []Event
	for i := 1; i <= 20; i++ {
		d := time.Duration(i) * time.Millisecond
		events = append(events, k.At(d, func() { got = append(got, k.Now()) }))
	}
	// Cancel every third event.
	for i := 2; i < len(events); i += 3 {
		events[i].Cancel()
	}
	k.Run(time.Second)
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated after cancels: %v", got)
		}
	}
	if len(got) != 14 {
		t.Fatalf("got %d events, want 14", len(got))
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(10*time.Millisecond, func() { fired++ })
	k.At(20*time.Millisecond, func() { fired++ })
	k.At(30*time.Millisecond, func() { fired++ })
	k.Run(20 * time.Millisecond)
	if fired != 2 {
		t.Fatalf("fired %d events before horizon, want 2 (inclusive)", fired)
	}
	if k.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v, want horizon 20ms", k.Now())
	}
	k.Run(time.Second)
	if fired != 3 {
		t.Fatalf("resumed run fired %d total, want 3", fired)
	}
}

func TestRunAdvancesClockToHorizonWhenIdle(t *testing.T) {
	k := NewKernel(1)
	k.Run(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Fatalf("idle run left clock at %v", k.Now())
	}
}

func TestRunAllDrainsQueue(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.At(time.Millisecond, func() {
		fired++
		k.After(time.Millisecond, func() { fired++ })
	})
	end := k.RunAll()
	if fired != 2 || end != 2*time.Millisecond {
		t.Fatalf("RunAll fired=%d end=%v", fired, end)
	}
	if k.Len() != 0 {
		t.Fatalf("queue not drained: %d", k.Len())
	}
}

func TestRNGStreamsAreIndependentAndStable(t *testing.T) {
	a1 := NewKernel(42).RNG("alpha").Int63()
	// Creating another stream first must not perturb "alpha".
	k := NewKernel(42)
	k.RNG("beta").Int63()
	a2 := k.RNG("alpha").Int63()
	if a1 != a2 {
		t.Fatalf("stream alpha not stable: %d vs %d", a1, a2)
	}
	if NewKernel(42).RNG("alpha").Int63() == NewKernel(43).RNG("alpha").Int63() {
		t.Fatal("different seeds produced identical streams")
	}
	if NewKernel(42).RNG("alpha").Int63() == NewKernel(42).RNG("beta").Int63() {
		t.Fatal("different stream names produced identical values")
	}
}

func TestRNGSameNameReturnsSameStream(t *testing.T) {
	k := NewKernel(7)
	r1 := k.RNG("x")
	r2 := k.RNG("x")
	if r1 != r2 {
		t.Fatal("RNG returned distinct objects for one name")
	}
}

// A stream found by a byte-slice name is the stream of that name: the
// same generator whichever form created it, seeded alike, and a hit
// allocates nothing.
func TestRNGBytesFindsNamedStream(t *testing.T) {
	k := NewKernel(7)
	name := []byte("mac.joiner.02:01:00:00:00:0702:00:00:00:00:2a")
	r := k.RNGBytes(name)
	if got := k.RNG(string(name)); got != r {
		t.Fatal("RNGBytes created a stream RNG does not find")
	}
	if got := k.RNGBytes(name); got != r {
		t.Fatal("RNGBytes returned distinct objects for one name")
	}
	other := NewKernel(7)
	if a, b := r.Int63(), other.RNG(string(name)).Int63(); a != b {
		t.Fatalf("stream seeded differently through RNGBytes: %d vs %d", a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() { k.RNGBytes(name) }); allocs != 0 {
		t.Fatalf("RNGBytes hit allocated %.1f times", allocs)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		k := NewKernel(99)
		r := k.RNG("jitter")
		var trace []time.Duration
		var tick func()
		tick = func() {
			trace = append(trace, k.Now())
			if len(trace) < 50 {
				k.After(time.Duration(r.Int63n(int64(10*time.Millisecond))), tick)
			}
		}
		k.After(0, tick)
		k.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of non-negative offsets, events fire in
// non-decreasing time order and all fire.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		k := NewKernel(3)
		var fired []time.Duration
		for _, o := range offsets {
			k.At(time.Duration(o)*time.Microsecond, func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDistBounds(t *testing.T) {
	u := Uniform{Min: 100 * time.Millisecond, Max: 500 * time.Millisecond}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := u.Sample(r)
		if v < u.Min || v > u.Max {
			t.Fatalf("uniform sample %v outside [%v,%v]", v, u.Min, u.Max)
		}
	}
	if u.Mean() != 300*time.Millisecond {
		t.Fatalf("uniform mean %v", u.Mean())
	}
}

func TestUniformDegenerate(t *testing.T) {
	u := Uniform{Min: time.Second, Max: time.Second}
	r := rand.New(rand.NewSource(1))
	if v := u.Sample(r); v != time.Second {
		t.Fatalf("degenerate uniform sampled %v", v)
	}
}

func TestConstantDist(t *testing.T) {
	c := Constant{V: 42 * time.Millisecond}
	if c.Sample(nil) != c.V || c.Mean() != c.V {
		t.Fatal("constant dist broken")
	}
}

func TestExponentialCap(t *testing.T) {
	e := Exponential{MeanD: time.Second, Cap: 2 * time.Second}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if v := e.Sample(r); v > e.Cap || v < 0 {
			t.Fatalf("exponential sample %v out of range", v)
		}
	}
}

func TestExponentialMeanApprox(t *testing.T) {
	e := Exponential{MeanD: time.Second}
	r := rand.New(rand.NewSource(1))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += e.Sample(r)
	}
	got := float64(sum) / n / float64(time.Second)
	if got < 0.95 || got > 1.05 {
		t.Fatalf("exponential empirical mean %.3fs, want ~1s", got)
	}
}

func TestLogNormalPositiveAndCapped(t *testing.T) {
	l := LogNormal{Mu: 0.5, Sigma: 1.2, Cap: time.Minute}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := l.Sample(r)
		if v < 0 || v > l.Cap {
			t.Fatalf("lognormal sample %v out of range", v)
		}
	}
	if l.Mean() <= 0 {
		t.Fatal("lognormal mean not positive")
	}
}

func TestDistStrings(t *testing.T) {
	for _, d := range []Dist{
		Constant{time.Second},
		Uniform{time.Second, 2 * time.Second},
		Exponential{MeanD: time.Second},
		LogNormal{Mu: 1, Sigma: 1},
	} {
		if d.String() == "" {
			t.Fatalf("%T has empty String()", d)
		}
	}
}

func TestStaleHandleCannotCancelSlotReuse(t *testing.T) {
	k := NewKernel(1)
	// e1 fires, releasing its arena slot; e2 then reuses that slot with a
	// bumped generation. The stale e1 handle must not cancel e2.
	e1 := k.At(time.Millisecond, func() {})
	k.Run(time.Millisecond)
	fired := false
	e2 := k.At(2*time.Millisecond, func() { fired = true })
	if e1.Pending() {
		t.Fatal("stale handle reports pending after slot reuse")
	}
	if e1.Cancel() {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	if !e2.Pending() {
		t.Fatal("new occupant lost its pending state")
	}
	k.Run(time.Second)
	if !fired {
		t.Fatal("new occupant never fired")
	}
}

func TestZeroEventIsInert(t *testing.T) {
	var e Event
	if e.Pending() {
		t.Fatal("zero Event pending")
	}
	if e.Cancel() {
		t.Fatal("zero Event cancelled something")
	}
}

func TestEventNotPendingDuringOwnCallback(t *testing.T) {
	k := NewKernel(1)
	var e Event
	var pendingInside, cancelInside bool
	e = k.At(time.Millisecond, func() {
		pendingInside = e.Pending()
		cancelInside = e.Cancel()
	})
	k.Run(time.Second)
	if pendingInside {
		t.Fatal("event pending during its own callback")
	}
	if cancelInside {
		t.Fatal("event cancellable during its own callback")
	}
}

func TestCancelledSlotReuseKeepsOrder(t *testing.T) {
	// Heavy schedule/cancel churn recycling slots must not corrupt the
	// heap: firing order stays (at, seq).
	k := NewKernel(1)
	r := rand.New(rand.NewSource(5))
	var fired []time.Duration
	var live []Event
	for round := 0; round < 50; round++ {
		for j := 0; j < 20; j++ {
			d := k.Now() + time.Duration(1+r.Intn(1000))*time.Microsecond
			live = append(live, k.At(d, func() { fired = append(fired, k.Now()) }))
		}
		for j := 0; j < len(live); j += 3 {
			live[j].Cancel()
		}
		live = live[:0]
		k.Run(k.Now() + 500*time.Microsecond)
	}
	k.RunAll()
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("order violated under churn at %d: %v < %v", i, fired[i], fired[i-1])
		}
	}
}

// kindLog is a timer owner for the handler tests: it records each
// kind it is fired with.
type kindLog struct {
	k     *Kernel
	fired []uint8
	at    []time.Duration
}

func (l *kindLog) Fire(kind uint8) {
	l.fired = append(l.fired, kind)
	l.at = append(l.at, l.k.Now())
}

// One owner, several timers: FireAt hands each event's kind back to
// the owner, and owner events order against one-off closures by (at,
// seq) like any other event.
func TestFireAtPassesKindToOwner(t *testing.T) {
	k := NewKernel(1)
	l := &kindLog{k: k}
	k.FireAt(3*time.Millisecond, l, 7)
	k.FireAfter(time.Millisecond, l, 1)
	k.At(time.Millisecond, func() { l.fired = append(l.fired, 99) })
	k.FireAfter(-time.Second, l, 0) // clamped to now
	k.Run(time.Second)
	want := []uint8{0, 1, 99, 7}
	if len(l.fired) != len(want) {
		t.Fatalf("fired %v, want %v", l.fired, want)
	}
	for i := range want {
		if l.fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", l.fired, want)
		}
	}
}

// Arming a timer through its owner, or a one-off through a func value
// built once, allocates nothing once the arena has room: neither the
// owner's pointer nor the func value is boxed.
func TestFireAtAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	l := &kindLog{k: k, fired: make([]uint8, 0, 1024), at: make([]time.Duration, 0, 1024)}
	fn := func() {}
	k.Reserve(8)
	allocs := testing.AllocsPerRun(100, func() {
		e := k.FireAfter(time.Millisecond, l, 3)
		k.After(time.Millisecond, fn)
		e.Cancel()
		k.Run(k.Now() + time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("arming through an owner allocated %.1f times per run", allocs)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	for name, arm := range map[string]func(k *Kernel){
		"FireAt":    func(k *Kernel) { k.FireAt(0, nil, 0) },
		"At":        func(k *Kernel) { k.At(0, nil) },
		"After":     func(k *Kernel) { k.After(0, nil) },
		"FireAfter": func(k *Kernel) { k.FireAfter(0, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a nil callback did not panic", name)
				}
			}()
			arm(NewKernel(1))
		}()
	}
}

func BenchmarkKernelScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel(1)
		for j := 0; j < 1000; j++ {
			k.At(time.Duration(j)*time.Microsecond, func() {})
		}
		k.RunAll()
	}
}

// BenchmarkKernelSteadyStateChurn is the simulator's real kernel
// workload: a bounded window of pending events with a constant
// schedule-one-fire-one rotation, so slot reuse (not slab growth) is on
// the hot path.
func BenchmarkKernelSteadyStateChurn(b *testing.B) {
	k := NewKernel(1)
	const window = 256
	tick := func() {}
	for j := 0; j < window; j++ {
		k.At(time.Duration(j)*time.Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(k.Now()+window*time.Microsecond, tick)
		k.Run(k.Now() + time.Microsecond)
	}
}

// BenchmarkKernelCancel measures the schedule-then-cancel path that MAC
// and transport timers exercise constantly (most timers never fire).
func BenchmarkKernelCancel(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := k.At(k.Now()+time.Millisecond, fn)
		e.Cancel()
	}
}
