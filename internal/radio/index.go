package radio

import (
	"math"
	"slices"

	"spider/internal/geo"
	"spider/internal/wifi"
)

// This file implements the medium's per-channel radio registries and the
// uniform spatial grid that turns the O(radios) carrier-sense and
// delivery scans into neighborhood queries.
//
// Determinism contract: the index is a pure *pre-filter*. A query walks
// the registry in place (see walk) and the medium keeps, as it goes, every
// radio the linear scan would have touched: drawn loss randomness for,
// counted in a stat, or delivered to. Delivery sorts only what it kept
// back into registration order, so the medium's RNG consumes draws in
// exactly the order the linear scan produced — golden outputs are
// byte-identical either way. The linear scan is retained as the medium's
// idx == nil path, which only radio's tests select (export_test.go), and
// equivalence tests — scripted traffic here, a full drive and a sharded
// city in the external tests — keep both honest.
//
// Static radios (declared via NewStaticRadio — access points) live in a
// flat per-channel cell grid in compressed-sparse-row form: the cells of
// the bounding box of the channel's statics, row-major, each a
// registration-ordered run of one member array. A query clips its cell
// rectangle to the box and visits one contiguous run per row. Statics
// tune once, so the grid is rebuilt rarely — lazily, on the first query
// after an add or remove — and into buffers it keeps.
//
// Mobile radios are one registration-ordered list per channel, which
// every walk visits whole. They are not gridded: a mobile's cell goes
// stale as it moves, so a mobile grid must pad its queries by how far a
// mobile can drift between re-bins, and in a sharded tile, about two
// carrier-sense ranges wide, the padded rectangle spans the whole tile
// (DESIGN.md §14.3 has the measurements).
//
// Whatever a walk visits, the caller's range predicate stays exact. The
// indexed carrier-sense walk and delivery pre-filter ask Radio.within,
// which places a speed-bounded mobile from its last position sample when
// the distance it can have moved since cannot change the answer, and
// samples it otherwise; the linear scan always samples, so it remains an
// independent reference for both.

// cellKey addresses one grid cell. Cell side length is the carrier-sense
// range (the largest query radius), so any circular query touches at most
// a 3×3 block of cells (4×4 straddling alignment).
type cellKey struct{ cx, cy int32 }

// staticGrid is one channel's static radios in CSR form over the cell
// box [x0, x0+w) × [y0, y0+h). Cell (cx, cy) holds
// members[start[s]:start[s+1]] with s = (cy-y0)·w + (cx-x0), in
// registration order. The box only ever grows (a removed static leaves
// its cells empty), so the buffers reserved as radios are added always
// fit the next rebuild, which therefore never allocates: access points
// are added while the world is built, and the first frame rebuilds.
type staticGrid struct {
	x0, y0, w, h int32
	start        []int32
	members      []*Radio
	stale        bool // an add or remove since the last rebuild
}

// include grows the box to cover c, reserves buffer room for n members,
// and marks the grid for rebuild.
func (g *staticGrid) include(c cellKey, n int) {
	if g.w == 0 {
		g.x0, g.y0, g.w, g.h = c.cx, c.cy, 1, 1
	} else {
		x1, y1 := max(g.x0+g.w, c.cx+1), max(g.y0+g.h, c.cy+1)
		g.x0, g.y0 = min(g.x0, c.cx), min(g.y0, c.cy)
		g.w, g.h = x1-g.x0, y1-g.y0
	}
	g.start = slices.Grow(g.start[:0], int(g.w)*int(g.h)+1)
	g.members = slices.Grow(g.members[:0], n)
	g.stale = true
}

// slot returns c's row-major cell index; c must lie inside the box.
func (g *staticGrid) slot(c cellKey) int {
	return int(c.cy-g.y0)*int(g.w) + int(c.cx-g.x0)
}

// rebuild lays statics (registration-ordered, each binCell inside the
// box) out by counting sort: per-cell counts, prefix sums, then a
// stable placement pass that keeps registration order within each cell.
func (g *staticGrid) rebuild(statics []*Radio) {
	n := int(g.w) * int(g.h)
	g.start = g.start[:n+1]
	clear(g.start)
	for _, r := range statics {
		g.start[g.slot(r.binCell)+1]++
	}
	for i := 1; i <= n; i++ {
		g.start[i] += g.start[i-1]
	}
	// Placement advances start[s] to the end of cell s, which is where
	// cell s+1 begins; shifting right by one restores the offsets.
	g.members = g.members[:len(statics)]
	for _, r := range statics {
		s := g.slot(r.binCell)
		g.members[g.start[s]] = r
		g.start[s]++
	}
	copy(g.start[1:], g.start[:n])
	g.start[0] = 0
	g.stale = false
}

// channelIndex is the registry of radios tuned to one channel.
type channelIndex struct {
	statics []*Radio // static radios in registration order
	grid    staticGrid

	mobiles []*Radio // mobile radios in registration order
}

// mediumIndex is the medium's full registry: one channelIndex per tuned
// channel, indexed by channel number (untuned radios, channel 0, hear
// nothing and are not indexed; its slot stays nil).
type mediumIndex struct {
	cellSize float64
	chans    [wifi.MaxChannel + 1]*channelIndex
}

func newMediumIndex(cfg Config) *mediumIndex {
	size := cfg.CSRange
	if cfg.Range > size {
		size = cfg.Range
	}
	return &mediumIndex{cellSize: size}
}

// channel returns ch's registry, nil when nothing was ever tuned to it
// (or ch is no channel at all, as a corrupt ghost frame might claim).
func (ix *mediumIndex) channel(ch int) *channelIndex {
	if uint(ch) >= uint(len(ix.chans)) {
		return nil
	}
	return ix.chans[ch]
}

func (ix *mediumIndex) cellOf(p geo.Point) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / ix.cellSize)),
		cy: int32(math.Floor(p.Y / ix.cellSize)),
	}
}

// byReg orders radios by registration, the linear scan's iteration order.
func byReg(a, b *Radio) int { return int(a.regIdx - b.regIdx) }

// insertOrdered adds r to a registration-ordered slice. Channel changes
// are rare (a handful per simulated second) and per-channel lists are
// small, so the O(n) shift is noise next to the per-frame scans it avoids.
func insertOrdered(s []*Radio, r *Radio) []*Radio {
	i, _ := slices.BinarySearchFunc(s, r, byReg)
	return slices.Insert(s, i, r)
}

func removeRadio(s []*Radio, r *Radio) []*Radio {
	i, ok := slices.BinarySearchFunc(s, r, byReg)
	if !ok {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// add registers r under channel ch (ch != 0).
func (ix *mediumIndex) add(r *Radio, ch int) {
	ci := ix.chans[ch]
	if ci == nil {
		ci = &channelIndex{}
		ix.chans[ch] = ci
	}
	if r.static {
		r.binCell = ix.cellOf(r.position())
		ci.statics = insertOrdered(ci.statics, r)
		ci.grid.include(r.binCell, len(ci.statics))
	} else {
		ci.mobiles = insertOrdered(ci.mobiles, r)
	}
}

// remove unregisters r from channel ch.
func (ix *mediumIndex) remove(r *Radio, ch int) {
	ci := ix.chans[ch]
	if ci == nil {
		return
	}
	if r.static {
		ci.statics = removeRadio(ci.statics, r)
		ci.grid.stale = true
	} else {
		ci.mobiles = removeRadio(ci.mobiles, r)
	}
}

// queryBounds returns the inclusive cell range covering a circle of
// radius rad around p.
func (ix *mediumIndex) queryBounds(p geo.Point, rad float64) (lo, hi cellKey) {
	lo = ix.cellOf(geo.Point{X: p.X - rad, Y: p.Y - rad})
	hi = ix.cellOf(geo.Point{X: p.X + rad, Y: p.Y + rad})
	return lo, hi
}

// Query-bounds cache kinds: one slot per query radius a sender uses.
const (
	qbCS       = 0 // carrier-sense queries (radius CSRange)
	qbDelivery = 1 // delivery queries (radius Range)
)

// boundsFor returns the cell rectangle for a radius-rad query around p,
// serving it from r's cache when r last queried that kind from the same
// position. The cell hash (four floor-divides) is thus paid once per
// position, not once per frame: a station that transmits repeatedly from
// one spot — every AP, and any mobile between movement samples — reuses
// its bounds until it actually crosses into new coordinates. r may be
// nil (ghost frames), which always computes.
func (ix *mediumIndex) boundsFor(r *Radio, p geo.Point, rad float64, kind uint8) (lo, hi cellKey) {
	if r == nil {
		return ix.queryBounds(p, rad)
	}
	if r.qbPos == p {
		if r.qbValid&(1<<kind) != 0 {
			return r.qbLo[kind], r.qbHi[kind]
		}
	} else {
		r.qbPos = p
		r.qbValid = 0
	}
	lo, hi = ix.queryBounds(p, rad)
	r.qbLo[kind], r.qbHi[kind] = lo, hi
	r.qbValid |= 1 << kind
	return lo, hi
}

// walk calls visit, in place, with each run of channel-ch radios a
// query over the [lo, hi] cell rectangle must consider: the statics of
// each grid row the rectangle crosses (one contiguous run per row,
// row-major, rebuilding the grid first if an add or remove left it
// stale), then every mobile on the channel. The union is a superset of
// the channel's radios within the query radius, in no particular order:
// callers apply the exact predicate as they go, and sort what they keep
// when order matters. visit must not change the registry; runs alias it.
func (ix *mediumIndex) walk(ch int, lo, hi cellKey, visit func(run []*Radio)) {
	ci := ix.channel(ch)
	if ci == nil {
		return
	}
	g := &ci.grid
	if g.stale {
		g.rebuild(ci.statics)
	}
	x0, x1 := max(lo.cx, g.x0), min(hi.cx, g.x0+g.w-1)
	y0, y1 := max(lo.cy, g.y0), min(hi.cy, g.y0+g.h-1)
	for cy := y0; x0 <= x1 && cy <= y1; cy++ {
		row := g.slot(cellKey{x0, cy})
		visit(g.members[g.start[row]:g.start[row+int(x1-x0)+1]])
	}
	visit(ci.mobiles)
}

// covers reports whether a walk over the [lo, hi] rectangle on ch visits
// r: mobiles on the channel always, statics when their cell lies in the
// query rectangle. The unicast address path uses it to visit exactly the
// addressed radios a walk would have, and both paths to union in an
// addressed radio the walk missed without duplicating it.
func (ix *mediumIndex) covers(r *Radio, ch int, lo, hi cellKey) bool {
	if r.channel != ch {
		return false
	}
	if !r.static {
		return true
	}
	c := r.binCell
	return c.cx >= lo.cx && c.cx <= hi.cx && c.cy >= lo.cy && c.cy <= hi.cy
}
