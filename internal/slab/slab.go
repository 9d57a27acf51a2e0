// Package slab provides the free list every pool in the simulator is
// built on: recycled objects are reused last in, first out, and misses
// are carved from slabs, so growing a list to its working set costs one
// allocation per slab rather than one per object.
//
// Slabs start small and double (4, 8, 16, 32, then 64 objects, and 64
// from then on). A sharded city builds one list per kind of object per
// tile, and a metro has over a thousand tiles of a few dozen clients
// each: a fixed 64-object slab per list would leave most of every
// tile's carving untouched, while the cap keeps one slab of a large
// world's list a few KB.
//
// A List is not safe for concurrent use; each belongs to one kernel's
// goroutine, like everything it recycles.
package slab

const (
	firstSlab = 4
	maxSlab   = 64
)

// List is a free list of T. The zero value is ready to use.
type List[T any] struct {
	free []*T
	slab []T // the uncarved rest of the newest slab
	next int // size of the next slab; 0 before the first
}

// Get returns the most recently recycled object, or a zeroed one carved
// from a slab. A recycled object comes back as it was put, so the
// caller resets it.
func (l *List[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	if len(l.slab) == 0 {
		l.next = min(max(2*l.next, firstSlab), maxSlab)
		l.slab = make([]T, l.next)
	}
	x := &l.slab[0]
	l.slab = l.slab[1:]
	return x
}

// Put recycles x for the next Get. The caller must not use x
// afterwards, nor put it twice.
func (l *List[T]) Put(x *T) { l.free = append(l.free, x) }

// Len reports how many recycled objects wait for a Get.
func (l *List[T]) Len() int { return len(l.free) }
