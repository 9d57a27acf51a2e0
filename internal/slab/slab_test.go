package slab

import (
	"slices"
	"testing"
)

type obj struct {
	id  int
	pad [3]uint64
}

// TestSlabsGrowFromSmall: a list that only carves makes slabs of 4, 8,
// 16, 32 and 64 objects, then keeps making 64s, and no two objects it
// hands out share memory.
func TestSlabsGrowFromSmall(t *testing.T) {
	var l List[obj]
	var sizes []int
	var live []*obj
	for i := 0; i < 4+8+16+32+64+64+64; i++ {
		newSlab := len(l.slab) == 0
		x := l.Get()
		if l.Len() != 0 {
			t.Fatalf("get %d left %d objects on a free list nothing was put on", i, l.Len())
		}
		if newSlab {
			sizes = append(sizes, len(l.slab)+1)
		}
		x.id = i
		live = append(live, x)
	}
	if want := []int{4, 8, 16, 32, 64, 64, 64}; !slices.Equal(sizes, want) {
		t.Fatalf("slab sizes %v, want %v", sizes, want)
	}
	for i, x := range live {
		if x.id != i {
			t.Fatalf("object %d reads id %d: it aliases a later one", i, x.id)
		}
	}
}

// TestReuseIsLIFO: Get returns the most recently put object first, as
// it was put, and carves only once the free list is empty.
func TestReuseIsLIFO(t *testing.T) {
	var l List[obj]
	a, b, c := l.Get(), l.Get(), l.Get()
	a.id, b.id, c.id = 1, 2, 3
	l.Put(a)
	l.Put(c)
	l.Put(b)
	if l.Len() != 3 {
		t.Fatalf("Len %d after three puts, want 3", l.Len())
	}
	for _, want := range []*obj{b, c, a} {
		if got := l.Get(); got != want {
			t.Fatalf("got object %d, want object %d recycled", got.id, want.id)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len %d after taking back all three, want 0", l.Len())
	}
	if d := l.Get(); d.id != 0 || d == a || d == b || d == c {
		t.Fatalf("get from an empty free list returned %+v, want a zeroed new object", d)
	}
}

// TestWarmListAllocatesNothing: once a list holds its working set,
// cycling it allocates nothing.
func TestWarmListAllocatesNothing(t *testing.T) {
	var l List[obj]
	held := make([]*obj, 100)
	cycle := func() {
		for i := range held {
			held[i] = l.Get()
		}
		for _, x := range held {
			l.Put(x)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm list allocated %.1f times per cycle, want 0", n)
	}
}
