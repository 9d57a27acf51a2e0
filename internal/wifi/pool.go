package wifi

// Pool recycles the frame and body allocations that dominate the
// medium's hot path: beacons (one per AP per 100 ms), data frames and
// their TCP/DHCP payload bodies, probe requests, and the association
// request and response of every join. The event kernel went
// allocation-free in an earlier pass; the pool does the same for the
// per-frame traffic above it.
//
// Ownership rules (see DESIGN.md §12):
//
//   - A pool belongs to one Medium and is only touched from that
//     medium's kernel goroutine. No locking, by construction.
//   - Objects handed out by the pool are marked pool-owned. Recycle is
//     a no-op on anything else, so pooled and unpooled frames mix
//     freely in the same medium.
//   - The single recycle point is the medium's transmit-completion
//     path: once a frame has been delivered (or dropped by a retune
//     flush) and every receiver has returned, the radio recycles it.
//     Receivers must therefore copy anything they keep — every decoder
//     in the tree (tcpsim.FromFrame, dhcp.DecodeMessage, the AP table's
//     observe) already copies by value.
//   - Frames that die before reaching the air (PSM buffer trims,
//     transmit-queue purges on teardown) are simply dropped on the
//     floor; the GC reclaims them. Leaking out of the pool is always
//     safe, recycling twice never happens (the pooled mark is cleared
//     on recycle).
//
// A nil *Pool is valid and allocates everything fresh — that is the
// Config.NoPool escape hatch. Both paths produce byte-identical
// simulations; only the allocation count differs.
type Pool struct {
	frames     freeList[Frame]
	beacons    freeList[BeaconBody]
	datas      freeList[DataBody]
	probes     freeList[ProbeReqBody]
	assocReqs  freeList[AssocReqBody]
	assocResps freeList[AssocRespBody]

	// Fresh counts allocations that missed the free list; Recycled
	// counts frames returned. Benchmark/test instrumentation only.
	Fresh, Recycled uint64
}

// freeList recycles one kind of pooled object. Misses carve from a slab
// (the miss arena), so growing a pool to its working set costs one
// allocation per slab, not one per object — the same trick the event
// kernel's arena uses.
type freeList[T any] struct {
	free []*T
	slab []T
}

func (l *freeList[T]) put(x *T) { l.free = append(l.free, x) }

// poolSlab is the arena granule. Frames and bodies are small (≤ ~100
// bytes), so a granule stays a few KB.
const poolSlab = 64

// take pops a recycled object from l, or carves one from its slab and
// counts the miss. The caller resets the object it gets.
func take[T any](p *Pool, l *freeList[T]) *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	p.Fresh++
	if len(l.slab) == 0 {
		l.slab = make([]T, poolSlab)
	}
	x := &l.slab[0]
	l.slab = l.slab[1:]
	return x
}

// Frame returns a zeroed pool-owned frame.
func (p *Pool) Frame() *Frame {
	if p == nil {
		return &Frame{}
	}
	f := take(p, &p.frames)
	*f = Frame{pooled: true}
	return f
}

// Beacon returns a zeroed pool-owned beacon body.
func (p *Pool) Beacon() *BeaconBody {
	if p == nil {
		return &BeaconBody{}
	}
	b := take(p, &p.beacons)
	*b = BeaconBody{pooled: true}
	return b
}

// Data returns a pool-owned data body with a zero-length Header that
// keeps its previous capacity — append the payload header into it.
func (p *Pool) Data() *DataBody {
	if p == nil {
		return &DataBody{}
	}
	d := take(p, &p.datas)
	*d = DataBody{pooled: true, Header: d.Header[:0]}
	return d
}

// Probe returns a zeroed pool-owned probe-request body.
func (p *Pool) Probe() *ProbeReqBody {
	if p == nil {
		return &ProbeReqBody{}
	}
	b := take(p, &p.probes)
	*b = ProbeReqBody{pooled: true}
	return b
}

// AssocReq returns a zeroed pool-owned association-request body.
func (p *Pool) AssocReq() *AssocReqBody {
	if p == nil {
		return &AssocReqBody{}
	}
	b := take(p, &p.assocReqs)
	*b = AssocReqBody{pooled: true}
	return b
}

// AssocResp returns a zeroed pool-owned association-response body.
func (p *Pool) AssocResp() *AssocRespBody {
	if p == nil {
		return &AssocRespBody{}
	}
	b := take(p, &p.assocResps)
	*b = AssocRespBody{pooled: true}
	return b
}

// Recycle returns a pool-owned frame (and its pool-owned body, if any)
// to the free lists. Frames the pool does not own pass through
// untouched, as do nil frames, so callers never need to check
// provenance. The caller must not use f or its body afterwards.
func (p *Pool) Recycle(f *Frame) {
	if p == nil || f == nil || !f.pooled {
		return
	}
	switch b := f.Body.(type) {
	case *BeaconBody:
		if b.pooled {
			b.pooled = false
			p.beacons.put(b)
		}
	case *DataBody:
		if b.pooled {
			b.pooled = false
			p.datas.put(b)
		}
	case *ProbeReqBody:
		if b.pooled {
			b.pooled = false
			p.probes.put(b)
		}
	case *AssocReqBody:
		if b.pooled {
			b.pooled = false
			p.assocReqs.put(b)
		}
	case *AssocRespBody:
		if b.pooled {
			b.pooled = false
			p.assocResps.put(b)
		}
	}
	f.pooled = false
	f.Body = nil
	p.frames.put(f)
	p.Recycled++
}

// PoolOwned reports whether the frame is currently owned by a pool —
// exposed for the pooling equivalence tests.
func (f *Frame) PoolOwned() bool { return f.pooled }
