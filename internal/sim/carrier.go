package sim

import (
	"errors"
	"sort"
	"time"

	"spider/internal/slab"
)

// CarrierOwner receives what its carriers carry. When a carrier's delay
// runs out, the carrier leaves its owner's set and goes back to its
// pool; then the owner gets the payload and the kind byte the carrier
// was armed with.
type CarrierOwner[P any] interface {
	Arrive(p P, kind uint8)
}

// CarrierPool is a free list of carriers. The owners of one world share
// the world's pool, so a storm of joins warms one list rather than one
// per owner; like everything it recycles, it is touched only from its
// world's kernel goroutine. The zero value is ready.
type CarrierPool[P any] struct {
	list slab.List[carrier[P]]
}

// Len reports how many carriers wait for reuse.
func (p *CarrierPool[P]) Len() int { return p.list.Len() }

// carrier holds one payload across a delay. It is its own timer's
// Handler, so arming one builds no closure. set is non-nil while the
// carrier is armed; prev and next link it into its set's list of armed
// carriers, so tracking one needs no storage beyond the carrier. slot
// and gen are its event's handle without the kernel pointer, which
// the set holds. The small fields come last, so a carrier of a pointer
// is 48 bytes.
type carrier[P any] struct {
	set        *Carriers[P]
	prev, next *carrier[P]
	p          P
	slot       int32
	gen        uint32
	kind       uint8
}

// arm records ev as the carrier's event.
func (c *carrier[P]) arm(ev Event) { c.slot, c.gen = ev.idx, ev.gen }

// event returns the armed carrier's event.
func (c *carrier[P]) event() Event { return Event{k: c.set.k, idx: c.slot, gen: c.gen} }

// Fire implements Handler: the delay ran out.
func (c *carrier[P]) Fire(kind uint8) {
	s, p := c.set, c.p
	s.untrack(c)
	s.put(c)
	s.owner.Arrive(p, kind)
}

// Carriers is one owner's set of armed carriers: the payloads it holds
// back for a delay (an AP's processing delay, a DHCP server's think
// time, a backhaul's serialization and latency), each in flight on its
// own kernel event. The set lists them for a checkpoint and re-arms
// them at restore with their recorded (at, seq) identities. The armed
// carriers form a doubly linked list from head, threaded through the
// carriers themselves, so a set never grows a slice. Call Init before
// arming.
type Carriers[P any] struct {
	k     *Kernel
	owner CarrierOwner[P]
	pool  *CarrierPool[P]
	head  *carrier[P]
	n     int
}

// Init binds the set to its kernel and owner. A set being re-bound (a
// client adopted by another world) must have been drained first.
func (s *Carriers[P]) Init(k *Kernel, owner CarrierOwner[P]) { s.k, s.owner = k, owner }

// Kernel returns the kernel the set is bound to.
func (s *Carriers[P]) Kernel() *Kernel { return s.k }

// SetPool points the set at a pool shared with the other owners of its
// world. A set given no pool makes its own at its first carrier.
func (s *Carriers[P]) SetPool(p *CarrierPool[P]) { s.pool = p }

// Pool returns the set's pool (nil before the first carrier of a set
// given none).
func (s *Carriers[P]) Pool() *CarrierPool[P] { return s.pool }

// Len reports how many carriers are armed.
func (s *Carriers[P]) Len() int { return s.n }

// ArmAt hands p to the owner at t, with kind.
func (s *Carriers[P]) ArmAt(t time.Duration, p P, kind uint8) {
	c := s.take(p, kind)
	c.arm(s.k.FireAt(t, c, kind))
}

// ArmAfter hands p to the owner d from now, with kind; a negative d is
// zero, as in FireAfter.
func (s *Carriers[P]) ArmAfter(d time.Duration, p P, kind uint8) {
	c := s.take(p, kind)
	c.arm(s.k.FireAfter(d, c, kind))
}

// take draws a carrier for p from the pool and registers it; the
// caller arms its event.
func (s *Carriers[P]) take(p P, kind uint8) *carrier[P] {
	if s.pool == nil {
		s.pool = new(CarrierPool[P])
	}
	c := s.pool.list.Get()
	c.set, c.p, c.kind = s, p, kind
	c.next = s.head
	if s.head != nil {
		s.head.prev = c
	}
	s.head = c
	s.n++
	return c
}

// untrack unlinks c from the armed list; order there is irrelevant,
// since Capture sorts by event identity.
func (s *Carriers[P]) untrack(c *carrier[P]) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		s.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	s.n--
}

// put disarms c and returns it to the pool, holding nothing.
func (s *Carriers[P]) put(c *carrier[P]) {
	var zero P
	c.set, c.prev, c.next, c.p, c.slot, c.gen = nil, nil, nil, zero, 0, 0
	s.pool.list.Put(c)
}

// Drain cancels every armed carrier, returns it to the pool and hands
// its payload to fn (a nil fn drops the payloads). The owner gets no
// Arrive for them.
func (s *Carriers[P]) Drain(fn func(P)) {
	c := s.head
	s.head, s.n = nil, 0
	for c != nil {
		next := c.next
		c.event().Cancel()
		p := c.p
		s.put(c)
		if fn != nil {
			fn(p)
		}
		c = next
	}
}

// InFlight is one armed carrier as a checkpoint records it.
type InFlight[P any] struct {
	P    P
	Kind uint8
	Ev   EventState
}

// Capture lists the armed carriers in the order the kernel will fire
// them, by (At, Seq), so the list is canonical whatever the arm order
// or the free list's history. A registered carrier with no pending
// event is an error: the set no longer describes what is in flight.
func (s *Carriers[P]) Capture() ([]InFlight[P], error) {
	out := make([]InFlight[P], 0, s.n)
	for c := s.head; c != nil; c = c.next {
		ev := CaptureEvent(c.event())
		if !ev.Pending {
			return nil, errors.New("sim: a tracked carrier has no pending event")
		}
		out = append(out, InFlight[P]{P: c.p, Kind: c.kind, Ev: ev})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ev.Before(out[j].Ev) })
	return out, nil
}

// Restore re-arms a captured carrier: p reaches the owner with kind at
// the recorded (At, Seq), as in EventState.Restore. A record with no
// pending event is refused, since Capture never writes one.
func (s *Carriers[P]) Restore(es EventState, p P, kind uint8) error {
	if !es.Pending {
		return errors.New("sim: restoring a carrier with no pending event")
	}
	c := s.take(p, kind)
	c.arm(es.Restore(s.k, c, kind))
	return nil
}
