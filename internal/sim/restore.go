// Checkpoint/restore support: the primitives that let a kernel be
// rewound to a recorded instant and re-armed so that continued
// execution is byte-identical to a run that never stopped.
//
// The restore model is "build normally, then rewind & re-arm". A
// restoring process constructs its world exactly as a fresh run would
// — constructors may schedule events and draw from named RNG streams;
// none of that matters, because the restore then:
//
//  1. calls BeginRestore, which drops every pending event and sets the
//     clock, sequence counter and fired count to the recorded values;
//  2. calls RestoreRNGs, which re-derives every named stream from the
//     kernel seed and fast-forwards it by the recorded number of
//     source steps; and
//  3. has each component re-arm its recorded pending timers via
//     EventState.Restore with the original (at, seq) pair.
//
// The event heap is keyed by (at, seq), so re-insertion order is
// irrelevant: ties between restored events break exactly as they did
// in the original run, and events scheduled after the restore draw
// fresh sequence numbers from the restored counter — the same numbers
// the uninterrupted run would have used.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// CountedSource is a math/rand-compatible Source64 that counts
// generator steps. Every *rand.Rand method consumes one or more source
// outputs, each of which passes through here, so the count identifies
// the stream's exact position regardless of which mix of draw methods
// produced it. Fast-forwarding a fresh source by the same count
// restores the position: Burn draws at the source level, below
// rand.Rand's conversion layer, so the mix of Int63/Uint64 calls never
// matters.
//
// Outputs are bit-identical to rand.NewSource(seed) (see go1rng.go and
// its equivalence tests), but the source is lazy: creation stores only
// the normalized seed, the first g1Tap (273) draws are computed
// sparsely from (seed, position) without a feedback register, and the
// full 5 KB register materializes only when a stream crosses that
// horizon. The metro join storm creates hundreds of thousands of
// streams that draw a handful of times or never — under stdlib
// seeding those paid ~1900 LCG steps and 5 KB each up front, which was
// nearly half the storm's wall clock.
type CountedSource struct {
	x0  uint32     // normalized seed state of the current seeding
	pos uint64     // outputs consumed since the current seeding
	n   uint64     // logical step count for checkpoints
	src *go1Source // nil while the stream is cold (no register yet)
}

// NewCountedSource returns a counted source seeded with seed. No
// register is built until the stream's draws cross the sparse horizon.
func NewCountedSource(seed int64) *CountedSource {
	return &CountedSource{x0: g1Norm(seed)}
}

// Int63 returns a non-negative 63-bit value, counting one step.
func (c *CountedSource) Int63() int64 {
	return int64(c.Uint64() &^ (1 << 63))
}

// Uint64 returns a 64-bit value, counting one step.
func (c *CountedSource) Uint64() uint64 {
	c.n++
	if c.src == nil {
		if c.pos < g1Tap {
			k := uint32(c.pos)
			c.pos++
			return g1Sparse(c.x0, k)
		}
		c.materialize()
	}
	c.pos++
	return c.src.Uint64()
}

// materialize builds the full register and brings the stream to its
// current position. Reached either when a live stream crosses the
// sparse horizon (replay ≤ g1Tap draws) or on the first draw after a
// Reseed with a large burn — which is exactly the work an eager reseed
// would have done, deferred until the stream is actually used. Beyond
// g1JumpMin draws the register is computed by jump-ahead rather than
// replayed, so any position a checkpoint names costs milliseconds.
func (c *CountedSource) materialize() {
	g := new(go1Source)
	g.seed(c.x0)
	if c.pos >= g1JumpMin {
		g.jump(c.pos)
	} else {
		for i := uint64(0); i < c.pos; i++ {
			g.Uint64()
		}
	}
	c.src = g
}

// Seed reseeds the source. The step count is not reset; use Reseed for
// checkpoint restore.
func (c *CountedSource) Seed(seed int64) {
	c.x0 = g1Norm(seed)
	c.pos = 0
	c.src = nil
}

// Steps reports how many source outputs have been consumed.
func (c *CountedSource) Steps() uint64 { return c.n }

// Reseed resets the source to its initial state for seed positioned
// after burn draws, leaving the stream exactly where a fresh source
// would be after burn draws. The fast-forward itself is deferred to the
// stream's next draw, so restoring a checkpoint with thousands of
// streams only replays the ones that are drawn from again.
func (c *CountedSource) Reseed(seed int64, burn uint64) {
	c.x0 = g1Norm(seed)
	c.pos = burn
	c.n = burn
	c.src = nil
}

// RNGPos records the position of one named kernel RNG stream.
type RNGPos struct {
	Name string
	N    uint64
}

// NextSeq reports the sequence number the next scheduled event will
// receive — part of checkpoint state, because restored runs must hand
// out the same tie-break sequence numbers the uninterrupted run would.
func (k *Kernel) NextSeq() uint64 { return k.nextSeq }

// ExportRNGs returns the positions of all named RNG streams that have
// consumed at least one source step, sorted by name. Streams at
// position zero are omitted: a rebuilt kernel recreates them fresh on
// first use, which is the same state.
func (k *Kernel) ExportRNGs() []RNGPos {
	out := make([]RNGPos, 0, len(k.rngs))
	for _, head := range k.rngs {
		for s := head; s != nil; s = s.next {
			if n := s.src.Steps(); n > 0 {
				out = append(out, RNGPos{Name: string(s.name), N: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RestoreRNGs rewinds every named stream to its seed-derived initial
// state and fast-forwards the named ones to their recorded positions.
// Streams that exist in the kernel but not in pos (created by
// constructors during the rebuild) are reset to fresh, cancelling any
// construction-time draws; streams in pos but not yet created are
// created. Cached *rand.Rand pointers held by components stay valid:
// the reseed mutates the underlying source in place.
func (k *Kernel) RestoreRNGs(pos []RNGPos) {
	for h, head := range k.rngs {
		for s := head; s != nil; s = s.next {
			s.src.Reseed(k.streamSeed(h), 0)
		}
	}
	for _, p := range pos {
		h := nameHash(p.Name)
		findStream(k, h, p.Name).src.Reseed(k.streamSeed(h), p.N)
	}
}

// BeginRestore drops every pending event and sets the clock, event
// sequence counter and fired count to the recorded values. Outstanding
// Event handles are invalidated (their slots' generations bump), so a
// freshly built world can be rewound wholesale: constructors' scheduled
// events vanish and components re-arm from recorded state via
// EventState.Restore.
func (k *Kernel) BeginRestore(now time.Duration, nextSeq, fired uint64) {
	for _, idx := range k.heap {
		k.release(idx)
	}
	k.heap = k.heap[:0]
	for b, idx := range k.heads {
		for idx != nilSlot {
			next := k.slots[idx].link // release relinks idx onto the free list
			k.release(idx)
			idx = next
		}
		k.heads[b], k.tails[b] = nilSlot, nilSlot
	}
	k.nStaged = 0
	for p := k.runPos; p < len(k.run); p++ {
		idx := k.run[p]
		if s := &k.slots[idx]; s.where == locRun && s.pos == int32(p) {
			k.release(idx)
		}
	}
	k.run = k.run[:0]
	k.runPos = 0
	k.runLive = 0
	k.now = now
	k.base = now &^ (bucketW - 1)
	k.nextSeq = nextSeq
	k.fired = fired
	k.restoreErr = nil
}

// EventState is the serializable identity of one possibly-pending
// timer: the common currency of component checkpoints.
type EventState struct {
	Pending bool
	At      time.Duration
	Seq     uint64
}

// CaptureEvent records a timer's identity for a checkpoint (zero value
// if it has fired or been cancelled).
func CaptureEvent(e Event) EventState {
	if !e.live() {
		return EventState{}
	}
	s := &e.k.slots[e.idx]
	return EventState{Pending: true, At: s.at, Seq: s.seq}
}

// Before orders captured timers as the kernel fires them, by (At,
// Seq): the canonical order for a checkpoint's lists of timers.
func (es EventState) Before(o EventState) bool {
	if es.At != o.At {
		return es.At < o.At
	}
	return es.Seq < o.Seq
}

// Restore re-arms a captured timer on k to fire h.Fire(kind), or
// returns the zero Event if none was pending. It is the re-arm half of checkpoint
// restore: the timer is reinserted with its recorded (at, seq) key
// instead of the next sequence number, so it sorts against every
// other event — restored or new — exactly as in the uninterrupted run.
//
// A recorded identity the restored kernel cannot hold — an instant
// before Now, or a seq at or above NextSeq — marks a corrupt
// checkpoint: the timer is dropped, the first such error is kept for
// RestoreErr, and the zero Event is returned.
func (es EventState) Restore(k *Kernel, h Handler, kind uint8) Event {
	if !es.Pending {
		return Event{}
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	switch {
	case k.restoreErr != nil:
		return Event{}
	case es.At < k.now:
		k.restoreErr = fmt.Errorf("sim: timer restored into the past: now=%v at=%v", k.now, es.At)
		return Event{}
	case es.Seq >= k.nextSeq:
		k.restoreErr = fmt.Errorf("sim: restored timer seq %d not below next seq %d", es.Seq, k.nextSeq)
		return Event{}
	}
	idx := k.alloc()
	s := &k.slots[idx]
	s.h, s.kind = h, kind
	s.at = es.At
	s.seq = es.Seq
	k.enqueue(idx)
	return Event{k: k, idx: idx, gen: s.gen}
}

// RestoreErr reports the first timer Restore refused since the last
// BeginRestore. A restore that leaves it set has not rebuilt the
// recorded state, and its kernel must be discarded.
func (k *Kernel) RestoreErr() error { return k.restoreErr }
