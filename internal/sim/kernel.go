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
// component never perturbs another. A component that names its stream per
// peer assembles the name in a stack buffer and finds the stream with
// RNGBytes, which allocates nothing once the stream exists. Streams are
// keyed by the 64-bit FNV-1a hash of their names, and the names
// themselves are kept in chunks of a per-kernel byte arena, so creating
// a stream makes no string.
//
// The scheduler is allocation-free on the hot path and burst-optimized:
// events live in a slab of slots, and the queue is a calendar-style
// near-future bucket front-end over a 4-ary min-heap. Events landing
// inside a sliding window of fixed-width time buckets are staged
// unsorted at O(1); a bucket is sorted wholesale by (at, seq) only when
// the clock reaches it — a flat, cache-friendly sort that replaces
// per-event heap sifts exactly where a cold-start join storm piles up
// millions of near-simultaneous timers. Events beyond the window, or
// inside the bucket currently dispatching, take the heap. The free list
// and the staging buckets are lists threaded through the slots
// themselves (one link per slot; a head per list, and a tail per
// bucket so a bucket keeps staging order), so once the arena
// has grown to a workload's peak, staging, cancelling and recycling
// allocate nothing: there is no per-bucket storage to grow, and none
// for capacity to migrate between buckets as the window turns.
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
	"math/rand"
	"slices"
	"time"
)

// Handler is a timer's owner: the kernel fires an event by calling the
// owner's Fire with the kind byte it was armed with, which tells the
// owner which of its timers is due. A component with several timers
// implements Fire once and switches on kind. Its pointer goes into the
// interface without allocating, so arming a timer through its owner
// builds no closure.
type Handler interface {
	Fire(kind uint8)
}

// Func adapts a one-off callback to Handler. A func value fits in an
// interface without allocating, so At and After share FireAt's
// dispatch path at no cost; only the closure the caller builds, if
// any, is allocated.
type Func func()

// Fire runs f; the kind is ignored.
func (f Func) Fire(uint8) { f() }

// Event is a handle to a scheduled callback. Events are one-shot;
// recurring behaviour is built by rescheduling from inside the callback.
// The zero Event is valid and refers to nothing: Cancel reports false and
// Pending reports false. Handles are values — holding one after the event
// fired retains no kernel or callback memory.
type Event struct {
	k   *Kernel
	idx int32
	gen uint32
}

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
		k.unstage(s)
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
	locBucket      // on the list Kernel.heads[bucket], after slot pos
	locRun         // in the sorted dispatch run at index pos
)

// nilSlot ends a slot list, marks a staged slot at its list's head and
// stands for an empty list's head and tail.
const nilSlot int32 = -1

// slot is one arena entry. A slot is live while its index sits in a
// queue structure; on fire or cancel the handler is dropped (so a
// long-lived kernel never retains a fired event's owner), the generation
// is bumped to invalidate outstanding handles, and the index returns to
// the free list. A staged or free slot is a node of a singly linked
// list: link names the next slot (nilSlot at the tail). A staged slot's
// pos names the one before it (nilSlot at the head), so Cancel unlinks
// it in O(1). The fields pack into 48 bytes.
type slot struct {
	h      Handler
	at     time.Duration
	seq    uint64
	gen    uint32
	pos    int32 // heap or run index, or list predecessor (see where)
	link   int32 // next slot on a bucket or the free list
	bucket int16 // staging bucket, when where == locBucket
	where  int8
	kind   uint8 // passed to h.Fire
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
	free    int32   // head of the recycled slots' list (LIFO)
	heap    []int32 // 4-ary min-heap of slot indices, keyed by (at, seq)
	nextSeq uint64
	seed    int64
	// rngs maps a name's hash to its stream, and through the streams'
	// next links to any other stream whose name hashes alike. names is
	// the name arena's current chunk; new names are appended to it.
	rngs  map[uint64]*stream
	names []byte

	// Calendar front-end state. heapOnly bypasses the front-end,
	// sending every event through the heap: the reference scheduler
	// sim's tests compare the calendar against, set only on a fresh
	// kernel. base is the (bucket-aligned) start of the staging window;
	// bucket b's staged slots form a list from heads[b] to tails[b] in
	// staging order; run is the sorted dispatch view of the bucket at
	// base, one slice reused by every bucket. runLive counts run entries
	// not yet fired or cancelled.
	heapOnly bool
	base     time.Duration
	heads    [numBuckets]int32
	tails    [numBuckets]int32
	nStaged  int
	run      []int32
	runPos   int
	runLive  int

	// Fired counts events executed; useful for tests and budget guards.
	fired uint64
	// restoreErr is the first recorded timer EventState.Restore refused.
	restoreErr error
}

// NewKernel returns a kernel whose clock starts at zero and whose RNG
// streams derive from seed.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{
		seed: seed,
		rngs: make(map[uint64]*stream),
		free: nilSlot,
	}
	for b := range k.heads {
		k.heads[b], k.tails[b] = nilSlot, nilSlot
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Seed returns the seed the kernel was constructed with.
func (k *Kernel) Seed() int64 { return k.seed }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// FNV-1a's 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// nameHash is the 64-bit FNV-1a hash of a stream name: the stream's key
// in the kernel's table and, mixed with the kernel seed, its seed.
func nameHash[N string | []byte](name N) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	return h
}

// streamSeed derives the seed of the stream whose name hashes to h by
// mixing it with the kernel seed.
func (k *Kernel) streamSeed(h uint64) int64 { return k.seed ^ int64(h) }

// A kernel's name arena grows in chunks that start at nameChunkFirst
// bytes and double up to nameChunkMax (a few dozen names). A sharded
// metro has over a thousand kernels, many holding a handful of names,
// so a fixed large chunk would leave most of each one's arena unused.
const (
	nameChunkFirst = 128
	nameChunkMax   = 1024
)

// stream is one named RNG stream: the generator handed to components
// and the counted source under it, in a single allocation, with its
// name (a slice of the kernel's name arena) and the next stream whose
// name hashes alike.
type stream struct {
	r    rand.Rand
	src  CountedSource
	name []byte
	next *stream
}

// findStream returns the stream named name, whose hash is h, creating
// it on first use. A new stream's name is appended to the arena's
// current chunk; a name that does not fit starts the next chunk, and
// the old one stays as it is, so no name is ever moved.
func findStream[N string | []byte](k *Kernel, h uint64, name N) *stream {
	head := k.rngs[h]
	for s := head; s != nil; s = s.next {
		if string(s.name) == string(name) {
			return s
		}
	}
	if cap(k.names)-len(k.names) < len(name) {
		size := min(max(2*cap(k.names), nameChunkFirst), nameChunkMax)
		k.names = make([]byte, 0, max(size, len(name)))
	}
	n := len(k.names)
	k.names = append(k.names, name...)
	s := &stream{src: *NewCountedSource(k.streamSeed(h)), name: k.names[n:len(k.names):len(k.names)], next: head}
	s.r = *rand.New(&s.src)
	k.rngs[h] = s
	return s
}

// RNG returns the named random stream, creating it on first use. The
// stream's seed mixes the kernel seed with the name, so streams are
// mutually independent and stable across runs. Streams sit on counted
// sources so checkpoints can record and restore their exact positions.
func (k *Kernel) RNG(name string) *rand.Rand {
	return &findStream(k, nameHash(name), name).r
}

// RNGBytes is RNG for a name assembled in a byte buffer. Neither the
// lookup nor the creation keeps the buffer, so a caller that builds the
// name in a stack buffer finds its stream without allocating once it
// exists.
func (k *Kernel) RNGBytes(name []byte) *rand.Rand {
	return &findStream(k, nameHash(name), name).r
}

// At schedules the one-off callback fn to run at absolute virtual time
// t. A component's recurring timers fire through FireAt instead, which
// needs no closure.
func (k *Kernel) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: nil event func")
	}
	return k.FireAt(t, Func(fn), 0)
}

// FireAt schedules h.Fire(kind) at absolute virtual time t. Scheduling
// in the past panics: it indicates a logic error in the caller, and
// silently clamping would mask causality bugs.
func (k *Kernel) FireAt(t time.Duration, h Handler, kind uint8) Event {
	if h == nil {
		panic("sim: nil event handler")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", k.now, t))
	}
	idx := k.alloc()
	s := &k.slots[idx]
	s.h, s.kind = h, kind
	s.at = t
	s.seq = k.nextSeq
	k.nextSeq++
	k.enqueue(idx)
	return Event{k: k, idx: idx, gen: s.gen}
}

// alloc takes a slot off the free list, growing the arena only when the
// list is empty.
func (k *Kernel) alloc() int32 {
	if idx := k.free; idx != nilSlot {
		k.free = k.slots[idx].link
		return idx
	}
	k.slots = append(k.slots, slot{})
	return int32(len(k.slots) - 1)
}

// Reserve grows the slot arena's capacity to at least n slots and
// changes nothing else: handles stay valid and dispatch order is
// untouched. A kernel whose peak of queued events is known ahead
// reserves it once instead of growing by doubling, which leaves every
// outgrown arena behind as garbage.
func (k *Kernel) Reserve(n int) {
	if n > cap(k.slots) {
		k.slots = slices.Grow(k.slots, n-len(k.slots))
	}
}

// SlotCap reports the slot arena's capacity, the most events the
// kernel can hold queued before its arena grows.
func (k *Kernel) SlotCap() int { return cap(k.slots) }

// After schedules the one-off callback fn to run d after the current
// virtual time. Negative d is treated as zero so that jittered delays
// cannot reach into the past.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// FireAfter schedules h.Fire(kind) d after the current virtual time,
// with After's clamping of negative d.
func (k *Kernel) FireAfter(d time.Duration, h Handler, kind uint8) Event {
	if d < 0 {
		d = 0
	}
	return k.FireAt(k.now+d, h, kind)
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

// stage appends the slot to its window bucket's list, unsorted.
func (k *Kernel) stage(idx int32) {
	s := &k.slots[idx]
	b := int16(s.at>>bucketBits) & (numBuckets - 1)
	s.where = locBucket
	s.bucket = b
	s.pos = k.tails[b]
	s.link = nilSlot
	if s.pos != nilSlot {
		k.slots[s.pos].link = idx
	} else {
		k.heads[b] = idx
	}
	k.tails[b] = idx
	k.nStaged++
}

// unstage unlinks a staged slot from its bucket's list.
func (k *Kernel) unstage(s *slot) {
	if s.pos == nilSlot {
		k.heads[s.bucket] = s.link
	} else {
		k.slots[s.pos].link = s.link
	}
	if s.link == nilSlot {
		k.tails[s.bucket] = s.pos
	} else {
		k.slots[s.link].pos = s.pos
	}
	k.nStaged--
}

// loadRun advances the window base to start and turns that bucket into
// the sorted dispatch run. The bucket's list is gathered into the run
// slice, which every bucket reuses, so the run's storage grows only to
// the largest bucket the kernel has dispatched. The list keeps staging
// order because a bucket staged in that order is more often already
// sorted than one read newest first, so the sort compares less
// (measured in DESIGN.md §14.1).
func (k *Kernel) loadRun(b int, start time.Duration) {
	k.base = start
	k.run = k.run[:0]
	for idx := k.heads[b]; idx != nilSlot; idx = k.slots[idx].link {
		k.run = append(k.run, idx)
	}
	k.heads[b], k.tails[b] = nilSlot, nilSlot
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
		for ; k.heads[(b+i)&(numBuckets-1)] == nilSlot; i++ {
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

// Len reports the number of queued events.
func (k *Kernel) Len() int { return len(k.heap) + k.runLive + k.nStaged }

// release recycles a slot that left the queue: the handler reference is
// dropped immediately (no fired-event garbage retained), the generation
// bump invalidates every outstanding handle, and the index becomes
// available for the next At.
func (k *Kernel) release(idx int32) {
	s := &k.slots[idx]
	s.h = nil
	s.gen++
	s.where = locFree
	s.pos = nilSlot
	s.link = k.free
	k.free = idx
}

// pop removes a slot that next returned — from the run head or the heap
// top — and recycles it, returning the handler to fire and its kind.
// The slot is released before the handler fires so that Pending/Cancel
// on the firing event behave as "already fired" and the slot can be
// reused by events the handler itself schedules.
func (k *Kernel) pop(idx int32) (Handler, uint8) {
	s := &k.slots[idx]
	h, kind := s.h, s.kind
	if s.where == locRun {
		k.runPos++
		k.runLive--
	} else {
		k.heapRemove(0)
	}
	k.release(idx)
	return h, kind
}

// Run executes events in timestamp order until the queue drains or the
// clock would pass until. Events scheduled exactly at until still run.
// It returns the virtual time when execution stopped.
func (k *Kernel) Run(until time.Duration) time.Duration {
	for {
		idx, ok := k.next()
		if !ok || k.slots[idx].at > until {
			break
		}
		k.now = k.slots[idx].at
		h, kind := k.pop(idx)
		k.fired++
		h.Fire(kind)
	}
	if k.now < until {
		// Nothing left before the horizon: advance the clock so callers
		// measuring durations against Now see the full interval.
		k.now = until
	}
	return k.now
}

// RunAll executes events until the queue is fully drained. Use only
// with workloads that terminate on their own.
func (k *Kernel) RunAll() time.Duration {
	for {
		idx, ok := k.next()
		if !ok {
			break
		}
		k.now = k.slots[idx].at
		h, kind := k.pop(idx)
		k.fired++
		h.Fire(kind)
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
