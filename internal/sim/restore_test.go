package sim

import (
	"math/rand"
	"testing"
	"time"
)

// Counting must not perturb the stream: a counted kernel RNG draws the
// same values as a plain source-seeded rand.Rand.
func TestCountedSourceTransparent(t *testing.T) {
	k := NewKernel(42)
	r := k.RNG("test.stream")
	ref := rand.New(rand.NewSource(k.streamSeed(nameHash("test.stream"))))
	for i := 0; i < 1000; i++ {
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("draw %d: counted %d != plain %d", i, got, want)
		}
	}
	if n := findStream(k, nameHash("test.stream"), "test.stream").src.Steps(); n != 1000 {
		t.Fatalf("steps = %d, want 1000", n)
	}
}

// Reseed + burn must land a stream on the exact position a live stream
// reached, across heterogeneous draw methods (each of which may consume
// several source steps).
func TestRNGRestorePosition(t *testing.T) {
	k := NewKernel(7)
	r := k.RNG("mix")
	for i := 0; i < 257; i++ {
		r.Float64()
		r.Intn(10 + i)
		r.ExpFloat64()
		r.NormFloat64()
	}
	pos := k.ExportRNGs()
	if len(pos) != 1 || pos[0].Name != "mix" {
		t.Fatalf("ExportRNGs = %+v", pos)
	}
	want := make([]uint64, 64)
	for i := range want {
		want[i] = r.Uint64()
	}

	k2 := NewKernel(7)
	r2 := k2.RNG("mix")
	r2.Uint64() // construction-time draw that restore must cancel
	k2.RestoreRNGs(pos)
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("restored draw %d: got %d want %d", i, got, want[i])
		}
	}
}

// A kernel rewound with BeginRestore and re-armed with EventState.Restore must
// replay the remainder of a run in the original order, including ties,
// and hand out the same sequence numbers to newly scheduled events.
func TestRewindReplaysIdentically(t *testing.T) {
	run := func(k *Kernel, log *[]int, stopAt time.Duration) {
		// Self-rescheduling chains with deliberate same-time ties.
		var a, b func()
		a = func() { *log = append(*log, 1); k.After(3*time.Millisecond, a) }
		b = func() { *log = append(*log, 2); k.After(3*time.Millisecond, b) }
		k.After(2*time.Millisecond, a)
		k.After(2*time.Millisecond, b)
		k.Run(stopAt)
	}

	// Uninterrupted reference.
	var ref []int
	kr := NewKernel(1)
	run(kr, &ref, 50*time.Millisecond)

	// Interrupted at 20ms: capture, rewind a freshly built kernel,
	// re-arm from the captured state, continue.
	var log []int
	k1 := NewKernel(1)
	var a1, b1 func()
	a1 = func() { log = append(log, 1); k1.After(3*time.Millisecond, a1) }
	b1 = func() { log = append(log, 2); k1.After(3*time.Millisecond, b1) }
	evA := k1.After(2*time.Millisecond, a1)
	evB := k1.After(2*time.Millisecond, b1)
	// Track live events by re-capturing on every reschedule.
	a1 = func() { log = append(log, 1); evA = k1.After(3*time.Millisecond, a1) }
	b1 = func() { log = append(log, 2); evB = k1.After(3*time.Millisecond, b1) }
	k1.Run(20 * time.Millisecond)

	stA, stB := CaptureEvent(evA), CaptureEvent(evB)
	if !stA.Pending || !stB.Pending {
		t.Fatal("expected both chains pending at the cut")
	}
	snapNow, snapSeq, snapFired := k1.Now(), k1.NextSeq(), k1.Fired()

	k2 := NewKernel(1)
	var a2, b2 func()
	a2 = func() { log = append(log, 1); k2.After(3*time.Millisecond, a2) }
	b2 = func() { log = append(log, 2); k2.After(3*time.Millisecond, b2) }
	k2.After(time.Millisecond, a2) // construction-time arming, dropped by rewind
	k2.BeginRestore(snapNow, snapSeq, snapFired)
	if k2.Len() != 0 {
		t.Fatalf("rewound kernel still has %d events", k2.Len())
	}
	// Re-arm in the "wrong" (swapped) order: (at, seq) keys must make
	// insertion order irrelevant.
	stB.Restore(k2, Func(b2), 0)
	stA.Restore(k2, Func(a2), 0)
	k2.Run(50 * time.Millisecond)

	if len(log) != len(ref) {
		t.Fatalf("replay length %d != reference %d", len(log), len(ref))
	}
	for i := range ref {
		if log[i] != ref[i] {
			t.Fatalf("event %d: replay fired %d, reference fired %d", i, log[i], ref[i])
		}
	}
	if k2.Fired() != kr.Fired() || k2.NextSeq() != kr.NextSeq() {
		t.Fatalf("counters diverge: fired %d/%d nextSeq %d/%d",
			k2.Fired(), kr.Fired(), k2.NextSeq(), kr.NextSeq())
	}
}

// Every named stream round-trips through ExportRNGs/RestoreRNGs: drawn
// streams land where they were, a stream only the rebuilt kernel drew
// is reset to fresh, streams never drawn are left out of the export,
// and every *rand.Rand handed out before the restore is still the one
// RNG returns after it.
func TestRNGStreamsRoundTrip(t *testing.T) {
	names := []string{"a", "b.client.1", "c", "never"}
	k := NewKernel(11)
	for i, name := range names[:3] {
		r := k.RNG(name)
		for j := 0; j < 100*i+7; j++ {
			r.Int63n(1000)
		}
	}
	k.RNG("never")
	if n := len(k.rngs); n != 4 {
		t.Fatalf("%d streams, want 4", n)
	}
	pos := k.ExportRNGs()
	if len(pos) != 3 || pos[0].Name != "a" || pos[1].Name != "b.client.1" || pos[2].Name != "c" {
		t.Fatalf("ExportRNGs = %+v", pos)
	}

	k2 := NewKernel(11)
	held := map[string]*rand.Rand{}
	for _, name := range []string{"c", "never", "rebuilt.only"} {
		held[name] = k2.RNG(name)
		held[name].Uint64() // construction-time draws restore must cancel
	}
	k2.RestoreRNGs(pos)
	for name, r := range held {
		if k2.RNG(name) != r {
			t.Fatalf("stream %q: RNG returned a different generator after restore", name)
		}
	}
	if got := k2.ExportRNGs(); len(got) != len(pos) {
		t.Fatalf("restored export = %+v, want %+v", got, pos)
	}
	fresh := NewKernel(11)
	for _, name := range append(names, "rebuilt.only") {
		want, src := k.RNG(name), "original"
		if name == "rebuilt.only" {
			want, src = fresh.RNG(name), "fresh"
		}
		got := k2.RNG(name)
		for i := 0; i < 300; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("stream %q draw %d: restored %d, %s %d", name, i, g, src, w)
			}
		}
	}
}
