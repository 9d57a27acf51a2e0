// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers of the Spider reproduction (radio medium, 802.11 MAC,
// DHCP, TCP, mobility) are written against this kernel. Time is virtual: a
// Kernel holds a clock that only advances when the next scheduled event
// fires, so a thirty-minute vehicular drive executes in milliseconds of
// wall time while preserving microsecond-scale protocol timing.
//
// Determinism is load-bearing for the experiment harness: two runs with
// the same seed must produce identical traces. The kernel therefore breaks
// ties between simultaneous events by insertion sequence and hands out
// named, independently seeded RNG streams so that adding randomness to one
// component never perturbs another.
//
// The scheduler is allocation-free on the hot path and burst-optimized:
// events live in a slab of slots recycled through a free list, and the
// queue is a calendar-style near-future bucket front-end over a 4-ary
// min-heap. Events landing inside a sliding window of fixed-width time
// buckets are staged unsorted at O(1); a bucket is sorted wholesale by
// (at, seq) only when the clock reaches it — a flat, cache-friendly sort
// that replaces per-event heap sifts exactly where a cold-start join
// storm piles up millions of near-simultaneous timers. Events beyond the
// window, or inside the bucket currently dispatching, take the heap.
// Because every structure orders by the same (timestamp, sequence) key,
// dispatch order — and therefore every golden output — is identical to
// the heap-only scheduler, which is retained in-package (a kernel with
// heapOnly set) as the reference the calendar path is pitted against by
// property and fuzz tests. Event values handed to callers are
// generation-checked handles, so Cancel and Pending on a slot that has
// since been recycled are safe no-ops.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"
)

// Event is a handle to a scheduled callback. Events are one-shot;
// recurring behaviour is built by rescheduling from inside the callback.
// The zero Event is valid and refers to nothing: Cancel reports false and
// Pending reports false. Handles are values — holding one after the event
// fired retains no kernel or callback memory.
type Event struct {
	k   *Kernel
	at  time.Duration
	idx int32
	gen uint32
}

// At reports the virtual time the event was scheduled for.
func (e Event) At() time.Duration { return e.at }

// live reports whether the handle still refers to a queued event.
func (e Event) live() bool {
	return e.k != nil && int(e.idx) < len(e.k.slots) &&
		e.k.slots[e.idx].gen == e.gen && e.k.slots[e.idx].where != locFree
}

// Cancel removes the event from the queue. It is safe to call on an event
// that has already fired or been cancelled; those calls report false.
func (e Event) Cancel() bool {
	if !e.live() {
		return false
	}
	k := e.k
	s := &k.slots[e.idx]
	switch s.where {
	case locHeap:
		k.heapRemove(int(s.pos))
	case locBucket:
		lst := k.buckets[s.bucket]
		last := len(lst) - 1
		if p := int(s.pos); p != last {
			moved := lst[last]
			lst[p] = moved
			k.slots[moved].pos = int32(p)
		}
		k.buckets[s.bucket] = lst[:last]
		k.nStaged--
	case locRun:
		// The run is sorted, so the entry stays put as a tombstone;
		// dispatch and peek skip entries whose slot no longer claims
		// the position.
		k.runLive--
	}
	k.release(e.idx)
	return true
}

// Pending reports whether the event is still queued.
func (e Event) Pending() bool { return e.live() }

// Slot locations. A slot is live while it sits in exactly one of the
// three queue structures; locFree slots are on the free list.
const (
	locFree   int8 = iota
	locHeap        // in Kernel.heap at index pos
	locBucket      // staged in Kernel.buckets[bucket] at index pos
	locRun         // in the sorted dispatch run at index pos
)

// slot is one arena entry. A slot is live while its index sits in a
// queue structure; on fire or cancel the callback is dropped (so a
// long-lived kernel never retains fired-event closures), the generation
// is bumped to invalidate outstanding handles, and the index returns to
// the free list.
type slot struct {
	fn     func()
	at     time.Duration
	seq    uint64
	gen    uint32
	pos    int32 // position within the structure named by where
	where  int8
	bucket int16 // staging bucket, when where == locBucket
}

// Calendar geometry: a window of numBuckets buckets, each bucketW wide
// (power of two, so bucket indexing is a shift and mask). The window
// spans ~268 ms — wide enough that beacon intervals, probe jitter and
// dwell slices stage in buckets; coarser timers (DHCP, scan periods)
// take the heap, which any event may fall back to at any time without
// affecting order.
const (
	bucketBits = 21 // 2^21 ns ≈ 2.1 ms per bucket
	bucketW    = time.Duration(1) << bucketBits
	numBuckets = 128
	bucketSpan = numBuckets * bucketW
)

// Kernel is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now     time.Duration
	slots   []slot
	free    []int32 // recycled slot indices (LIFO)
	heap    []int32 // 4-ary min-heap of slot indices, keyed by (at, seq)
	nextSeq uint64
	seed    int64
	rngs    map[string]*rand.Rand
	srcs    map[string]*CountedSource
	stopped bool

	// Calendar front-end state. heapOnly bypasses the front-end,
	// sending every event through the heap: the reference scheduler
	// sim's tests compare the calendar against, set only on a fresh
	// kernel. base is the (bucket-aligned) start of the staging window;
	// run is the sorted dispatch view of the bucket at base. runLive
	// counts run entries not yet fired or cancelled.
	heapOnly bool
	base     time.Duration
	buckets  [][]int32
	nStaged  int
	run      []int32
	runPos   int
	runLive  int

	// Fired counts events executed; useful for tests and budget guards.
	fired uint64
}

// NewKernel returns a kernel whose clock starts at zero and whose RNG
// streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		seed:    seed,
		rngs:    make(map[string]*rand.Rand),
		srcs:    make(map[string]*CountedSource),
		buckets: make([][]int32, numBuckets),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Seed returns the seed the kernel was constructed with.
func (k *Kernel) Seed() int64 { return k.seed }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// NumStreams reports how many named RNG streams exist (drawn or not).
func (k *Kernel) NumStreams() int { return len(k.srcs) }

// streamSeed derives the seed for the named RNG stream by mixing the
// kernel seed with an FNV-1a hash of the name.
func (k *Kernel) streamSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return k.seed ^ int64(h.Sum64())
}

// RNG returns the named random stream, creating it on first use. The
// stream's seed mixes the kernel seed with the name, so streams are
// mutually independent and stable across runs. Streams sit on counted
// sources so checkpoints can record and restore their exact positions.
func (k *Kernel) RNG(name string) *rand.Rand {
	if r, ok := k.rngs[name]; ok {
		return r
	}
	src := NewCountedSource(k.streamSeed(name))
	r := rand.New(src)
	k.rngs[name] = r
	k.srcs[name] = src
	return r
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a logic error in the caller, and silently
// clamping would mask causality bugs.
func (k *Kernel) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: nil event func")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", k.now, t))
	}
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, slot{})
		idx = int32(len(k.slots) - 1)
	}
	s := &k.slots[idx]
	s.fn = fn
	s.at = t
	s.seq = k.nextSeq
	k.nextSeq++
	k.enqueue(idx)
	return Event{k: k, at: t, idx: idx, gen: s.gen}
}

// After schedules fn to run d after the current virtual time. Negative d
// is treated as zero so that jittered delays cannot reach into the past.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// enqueue places a filled slot into the queue structure its timestamp
// calls for: the staging buckets for the near future, the heap for
// everything else (far future, the bucket currently dispatching, and —
// defensively — anything below the window base).
func (k *Kernel) enqueue(idx int32) {
	if k.heapOnly {
		k.heapPush(idx)
		return
	}
	at := k.slots[idx].at
	if k.runLive == 0 && k.nStaged == 0 && at >= k.base+bucketSpan {
		// Empty front-end and the event is beyond the window: slide the
		// window to the clock so near-future scheduling stays bucketed.
		k.base = k.now &^ (bucketW - 1)
	}
	if at < k.base+bucketW {
		if k.runLive > 0 || at < k.base {
			k.heapPush(idx)
		} else {
			k.stage(idx)
		}
		return
	}
	if at < k.base+bucketSpan {
		k.stage(idx)
		return
	}
	k.heapPush(idx)
}

// stage appends the slot to its window bucket, unsorted.
func (k *Kernel) stage(idx int32) {
	s := &k.slots[idx]
	b := int16(s.at>>bucketBits) & (numBuckets - 1)
	s.where = locBucket
	s.bucket = b
	s.pos = int32(len(k.buckets[b]))
	k.buckets[b] = append(k.buckets[b], idx)
	k.nStaged++
}

// loadRun advances the window base to start and turns that bucket into
// the sorted dispatch run. The old run's storage becomes the bucket's
// fresh staging slice, so steady state recycles both.
func (k *Kernel) loadRun(b int, start time.Duration) {
	k.base = start
	k.run, k.buckets[b] = k.buckets[b], k.run[:0]
	k.nStaged -= len(k.run)
	slices.SortFunc(k.run, func(a, c int32) int {
		sa, sc := &k.slots[a], &k.slots[c]
		if sa.at != sc.at {
			if sa.at < sc.at {
				return -1
			}
			return 1
		}
		if sa.seq < sc.seq { // seqs are unique; never equal
			return -1
		}
		return 1
	})
	for p, idx := range k.run {
		s := &k.slots[idx]
		s.where = locRun
		s.pos = int32(p)
	}
	k.runPos = 0
	k.runLive = len(k.run)
}

// ensureFront advances the window until the earliest pending event is
// either the run head or the heap top: while the run is drained and
// events are staged, the earliest nonempty bucket is loaded — unless
// the heap top precedes it, in which case dispatch proceeds from the
// heap and the staged buckets keep waiting.
func (k *Kernel) ensureFront() {
	for k.runLive == 0 && k.nStaged > 0 {
		b := int(k.base>>bucketBits) & (numBuckets - 1)
		i := 0
		for ; len(k.buckets[(b+i)&(numBuckets-1)]) == 0; i++ {
		}
		start := k.base + time.Duration(i)*bucketW
		if len(k.heap) > 0 && k.slots[k.heap[0]].at < start {
			return
		}
		k.loadRun((b+i)&(numBuckets-1), start)
	}
}

// runHead returns the slot index at the head of the run, skipping
// cancelled entries. ok is false when the run is drained.
func (k *Kernel) runHead() (int32, bool) {
	for k.runPos < len(k.run) {
		idx := k.run[k.runPos]
		s := &k.slots[idx]
		if s.where == locRun && s.pos == int32(k.runPos) {
			return idx, true
		}
		k.runPos++ // tombstone
	}
	return 0, false
}

// next returns the slot index of the globally earliest pending event
// without removing it. The run head and heap top are both candidates;
// staged buckets are pulled in by ensureFront as the clock reaches them.
func (k *Kernel) next() (int32, bool) {
	k.ensureFront()
	ri, rok := k.runHead()
	if len(k.heap) == 0 {
		return ri, rok
	}
	hi := k.heap[0]
	if !rok || k.heapLess(hi, ri) {
		return hi, true
	}
	return ri, true
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// NextAt reports the virtual time of the earliest queued event. ok is
// false when the queue is empty. Epoch runners use it as the kernel's
// contribution to a lookahead bound without disturbing dispatch order.
func (k *Kernel) NextAt() (at time.Duration, ok bool) {
	idx, ok := k.next()
	if !ok {
		return 0, false
	}
	return k.slots[idx].at, true
}

// Len reports the number of queued events.
func (k *Kernel) Len() int { return len(k.heap) + k.runLive + k.nStaged }

// release recycles a slot that left the queue: the callback reference is
// dropped immediately (no fired-event garbage retained), the generation
// bump invalidates every outstanding handle, and the index becomes
// available for the next At.
func (k *Kernel) release(idx int32) {
	s := &k.slots[idx]
	s.fn = nil
	s.gen++
	s.where = locFree
	s.pos = -1
	k.free = append(k.free, idx)
}

// pop removes a slot that next returned — from the run head or the heap
// top — and recycles it, returning the callback to run. The slot is
// released before the callback executes so that Pending/Cancel on the
// firing event behave as "already fired" and the slot can be reused by
// events the callback itself schedules.
func (k *Kernel) pop(idx int32) func() {
	s := &k.slots[idx]
	fn := s.fn
	if s.where == locRun {
		k.runPos++
		k.runLive--
	} else {
		k.heapRemove(0)
	}
	k.release(idx)
	return fn
}

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the clock would pass until. Events scheduled exactly at
// until still run. It returns the virtual time when execution stopped.
func (k *Kernel) Run(until time.Duration) time.Duration {
	k.stopped = false
	for !k.stopped {
		idx, ok := k.next()
		if !ok || k.slots[idx].at > until {
			break
		}
		k.now = k.slots[idx].at
		fn := k.pop(idx)
		k.fired++
		fn()
	}
	if k.now < until && !k.stopped {
		// Nothing left before the horizon: advance the clock so callers
		// measuring durations against Now see the full interval.
		k.now = until
	}
	return k.now
}

// RunAll executes events until the queue is fully drained or Stop is
// called. Use only with workloads that terminate on their own.
func (k *Kernel) RunAll() time.Duration {
	k.stopped = false
	for !k.stopped {
		idx, ok := k.next()
		if !ok {
			break
		}
		k.now = k.slots[idx].at
		fn := k.pop(idx)
		k.fired++
		fn()
	}
	return k.now
}

// ---- 4-ary heap over slot indices ----
//
// A 4-ary heap halves the tree depth of a binary heap and keeps the four
// children of a node in one cache line of the index slice, which is where
// a discrete-event simulator spends its sift time. Ordering is (at, seq):
// strictly the same tie-break as every other queue structure, so event
// execution order — and therefore every golden output — is unchanged.

func (k *Kernel) heapLess(a, b int32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (k *Kernel) heapPush(idx int32) {
	k.heap = append(k.heap, idx)
	s := &k.slots[idx]
	s.where = locHeap
	s.pos = int32(len(k.heap) - 1)
	k.siftUp(len(k.heap) - 1)
}

// heapRemove deletes the element at heap position pos, preserving heap
// order. The removed slot's location is left for the caller to reset.
func (k *Kernel) heapRemove(pos int) {
	h := k.heap
	n := len(h) - 1
	if pos != n {
		h[pos] = h[n]
		k.slots[h[pos]].pos = int32(pos)
	}
	k.heap = h[:n]
	if pos < n {
		k.siftDown(pos)
		k.siftUp(pos)
	}
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	for i > 0 {
		p := (i - 1) / 4
		if !k.heapLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		k.slots[h[i]].pos = int32(i)
		k.slots[h[p]].pos = int32(p)
		i = p
	}
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k.heapLess(h[c], h[min]) {
				min = c
			}
		}
		if !k.heapLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		k.slots[h[i]].pos = int32(i)
		k.slots[h[min]].pos = int32(min)
		i = min
	}
}
