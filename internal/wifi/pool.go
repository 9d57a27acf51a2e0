package wifi

import "spider/internal/slab"

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
//     in the tree (tcpsim.DecodeSegmentInto, dhcp.DecodeMessageInto,
//     the AP table's observe) already copies by value.
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
	frames     slab.List[Frame]
	beacons    slab.List[BeaconBody]
	datas      slab.List[DataBody]
	probes     slab.List[ProbeReqBody]
	assocReqs  slab.List[AssocReqBody]
	assocResps slab.List[AssocRespBody]
	// headers backs the Header of every carved data body: one array per
	// body, carved in step with the body slabs, so encoding a payload
	// header into a fresh body does not grow its Header from nil. Only
	// carved from, never put back: a header stays with its body.
	headers slab.List[[dataHeaderCap]byte]
}

// dataHeaderCap is the Header capacity a carved data body starts with:
// the TCP segment and the DHCP message headers both encode to 23 bytes.
// A longer header outgrows it and reallocates, as append does.
const dataHeaderCap = 23

// Frame returns a zeroed pool-owned frame.
func (p *Pool) Frame() *Frame {
	if p == nil {
		return &Frame{}
	}
	f := p.frames.Get()
	*f = Frame{pooled: true}
	return f
}

// Beacon returns a zeroed pool-owned beacon body.
func (p *Pool) Beacon() *BeaconBody {
	if p == nil {
		return &BeaconBody{}
	}
	b := p.beacons.Get()
	*b = BeaconBody{pooled: true}
	return b
}

// Data returns a pool-owned data body with a zero-length Header that
// keeps its previous capacity — append the payload header into it.
func (p *Pool) Data() *DataBody {
	if p == nil {
		return &DataBody{}
	}
	d := p.datas.Get()
	if d.Header == nil {
		h := p.headers.Get()
		d.Header = h[:0]
	}
	*d = DataBody{pooled: true, Header: d.Header[:0]}
	return d
}

// Probe returns a zeroed pool-owned probe-request body.
func (p *Pool) Probe() *ProbeReqBody {
	if p == nil {
		return &ProbeReqBody{}
	}
	b := p.probes.Get()
	*b = ProbeReqBody{pooled: true}
	return b
}

// AssocReq returns a zeroed pool-owned association-request body.
func (p *Pool) AssocReq() *AssocReqBody {
	if p == nil {
		return &AssocReqBody{}
	}
	b := p.assocReqs.Get()
	*b = AssocReqBody{pooled: true}
	return b
}

// AssocResp returns a zeroed pool-owned association-response body.
func (p *Pool) AssocResp() *AssocRespBody {
	if p == nil {
		return &AssocRespBody{}
	}
	b := p.assocResps.Get()
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
			p.beacons.Put(b)
		}
	case *DataBody:
		if b.pooled {
			b.pooled = false
			p.datas.Put(b)
		}
	case *ProbeReqBody:
		if b.pooled {
			b.pooled = false
			p.probes.Put(b)
		}
	case *AssocReqBody:
		if b.pooled {
			b.pooled = false
			p.assocReqs.Put(b)
		}
	case *AssocRespBody:
		if b.pooled {
			b.pooled = false
			p.assocResps.Put(b)
		}
	}
	f.pooled = false
	f.Body = nil
	p.frames.Put(f)
}

// PoolOwned reports whether the frame is currently owned by a pool —
// exposed for the pooling equivalence tests.
func (f *Frame) PoolOwned() bool { return f.pooled }
