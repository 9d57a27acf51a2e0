package sim

import (
	"fmt"
	"testing"
	"time"
)

// The shard runtime advances each tile's kernel in fixed epochs:
// Run(h1); Run(h2); … instead of one Run(T). These tests pin the horizon
// contract that makes the two byte-identical: events scheduled exactly at
// a horizon fire inside that epoch, resumption preserves the (at, seq)
// tie-break across the boundary, and cancel/reschedule across a horizon
// behaves exactly as in an uninterrupted run.

// runLogged executes a scenario twice — once under a single Run(total),
// once chopped into epoch-sized Run calls — and returns both firing logs.
// build schedules the initial events; it receives the kernel and a log
// function events append to.
func runLogged(t *testing.T, epochs []time.Duration, total time.Duration,
	build func(k *Kernel, log func(string))) (single, chopped []string) {
	t.Helper()
	run := func(horizons []time.Duration) []string {
		k := NewKernel(42)
		var out []string
		build(k, func(s string) { out = append(out, fmt.Sprintf("%v %s", k.Now(), s)) })
		for _, h := range horizons {
			k.Run(h)
		}
		return out
	}
	return run([]time.Duration{total}), run(epochs)
}

func assertSameLog(t *testing.T, single, chopped []string) {
	t.Helper()
	if len(single) != len(chopped) {
		t.Fatalf("log lengths differ: single %d vs chopped %d\nsingle: %v\nchopped: %v",
			len(single), len(chopped), single, chopped)
	}
	for i := range single {
		if single[i] != chopped[i] {
			t.Fatalf("log[%d] differs: single %q vs chopped %q", i, single[i], chopped[i])
		}
	}
}

// TestHorizonBoundaryOrder schedules several events exactly at an epoch
// boundary (plus neighbors on either side) and checks the chopped run
// fires them in the same order as the uninterrupted one.
func TestHorizonBoundaryOrder(t *testing.T) {
	const h = 100 * time.Millisecond
	single, chopped := runLogged(t,
		[]time.Duration{h, 2 * h, 3 * h}, 3*h,
		func(k *Kernel, log func(string)) {
			k.At(h-time.Nanosecond, func() { log("before") })
			// Three events exactly at the boundary: insertion order is the
			// tie-break, and one of them schedules a fourth at the same time.
			k.At(h, func() { log("at-1") })
			k.At(h, func() {
				log("at-2")
				k.At(h, func() { log("at-2-child") })
			})
			k.At(h, func() { log("at-3") })
			k.At(h+time.Nanosecond, func() { log("after") })
		})
	assertSameLog(t, single, chopped)
	want := []string{"before", "at-1", "at-2", "at-3", "at-2-child", "after"}
	for i, w := range want {
		if i >= len(single) || single[i][len(single[i])-len(w):] != w {
			t.Fatalf("unexpected order: got %v, want suffixes %v", single, want)
		}
	}
}

// TestHorizonEventAtBoundaryFiresInEpoch pins which side of the barrier
// a boundary event lands on: Run(h) is inclusive, so an event at exactly
// h belongs to the epoch ending at h, never the next one.
func TestHorizonEventAtBoundaryFiresInEpoch(t *testing.T) {
	k := NewKernel(1)
	const h = time.Second
	fired := false
	k.At(h, func() { fired = true })
	k.Run(h)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire within the epoch")
	}
	if k.Now() != h {
		t.Fatalf("clock stopped at %v, want %v", k.Now(), h)
	}
	// The next epoch starts with an empty queue; the clock still advances.
	k.Run(2 * h)
	if k.Now() != 2*h {
		t.Fatalf("resumed clock at %v, want %v", k.Now(), 2*h)
	}
}

// TestHorizonCancelRescheduleAcrossBoundary cancels an event from a
// different epoch than it was scheduled in, then reschedules it, and
// checks the chopped run matches the uninterrupted one exactly.
func TestHorizonCancelRescheduleAcrossBoundary(t *testing.T) {
	const h = 50 * time.Millisecond
	single, chopped := runLogged(t,
		[]time.Duration{h, 2 * h, 3 * h, 4 * h}, 4*h,
		func(k *Kernel, log func(string)) {
			// victim is scheduled in epoch 1 for epoch 3; an event in epoch 2
			// cancels it and reschedules it into epoch 4.
			victim := k.At(2*h+h/2, func() { log("victim-original") })
			k.At(h+h/2, func() {
				if !victim.Cancel() {
					log("cancel-missed")
					return
				}
				log("cancelled")
				k.At(3*h+h/2, func() { log("victim-rescheduled") })
			})
			// A decoy at the victim's original time proves the slot recycling
			// did not perturb ordering.
			k.At(2*h+h/2, func() { log("decoy") })
		})
	assertSameLog(t, single, chopped)
	want := []string{"cancelled", "decoy", "victim-rescheduled"}
	if len(single) != len(want) {
		t.Fatalf("got %v, want suffixes %v", single, want)
	}
}

// TestHorizonCancelAfterFire pins that cancelling an event that already
// fired in a previous epoch is a safe no-op reporting false.
func TestHorizonCancelAfterFire(t *testing.T) {
	k := NewKernel(1)
	const h = time.Second
	ev := k.At(h, func() {})
	k.Run(h)
	if ev.Pending() {
		t.Fatal("fired event still pending after the epoch")
	}
	if ev.Cancel() {
		t.Fatal("cancelling a fired event reported true")
	}
	// Rescheduling after the boundary lands in the next epoch.
	fired := false
	k.At(k.Now()+h/2, func() { fired = true })
	k.Run(2 * h)
	if !fired {
		t.Fatal("rescheduled event did not fire in the following epoch")
	}
}

// nextAt reports the virtual time of the earliest queued event, without
// disturbing dispatch order; ok is false when the queue is empty.
func nextAt(k *Kernel) (at time.Duration, ok bool) {
	idx, ok := k.next()
	if !ok {
		return 0, false
	}
	return k.slots[idx].at, true
}

// TestNextAt pins the kernel's lookahead.
func TestNextAt(t *testing.T) {
	k := NewKernel(1)
	if _, ok := nextAt(k); ok {
		t.Fatal("nextAt on an empty queue reported ok")
	}
	k.At(3*time.Second, func() {})
	ev := k.At(time.Second, func() {})
	if at, ok := nextAt(k); !ok || at != time.Second {
		t.Fatalf("nextAt = %v,%v; want 1s,true", at, ok)
	}
	ev.Cancel()
	if at, ok := nextAt(k); !ok || at != 3*time.Second {
		t.Fatalf("nextAt after cancel = %v,%v; want 3s,true", at, ok)
	}
}
