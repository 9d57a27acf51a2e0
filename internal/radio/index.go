package radio

import (
	"math"
	"slices"
	"time"

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
// Mobile radios are gridded too, but under a *drift-bounded* bin: a
// mobile's position is a function of time, so the cell it was binned in
// goes stale as it moves. Rather than observing every move (the medium
// only samples positions it is asked about — a silent client can drive
// into range without the medium ever evaluating it), each mobile declares
// an upper bound on its speed (Radio.SetMaxSpeed), and the index
// guarantees that no bin is ever older than cellSize/vmax: before any bin
// is consulted, every mobile on the channel is re-binned at its current
// position if the channel's sweep deadline has passed. A mobile can then
// have drifted at most one cell side from its binned position, so queries
// over the mobile grid pad their cell rectangle by one ring and remain
// supersets of the radios in range. The sweep is O(mobiles on channel)
// but runs once per sweep period of *virtual* time — during a join storm
// the medium answers thousands of queries per virtual millisecond against
// bins it almost never has to refresh, where the old design walked the
// full mobile list per query. Every channel switch edits the mobile bins,
// so they stay a map rather than a grid that would need a rebuild per
// switch. Mobiles that never declare a speed bound stay in an
// always-scanned list, the original behavior.

// cellKey addresses one grid cell. Cell side length is the carrier-sense
// range (the largest query radius), so any circular query touches at most
// a 3×3 block of cells (4×4 straddling alignment), plus the one-ring pad
// for drift-bounded mobiles.
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

	// Drift-bounded mobile grid: binned holds every speed-bounded mobile
	// in registration order; once the population crosses gridThreshold,
	// mcells carries the cell view of the same set, rebuilt wholesale
	// whenever the sweep deadline passes. Per-cell lists inherit
	// registration order from the rebuild's ordered walk. Below the
	// threshold the grid stays off (gridded false) and binned is simply
	// appended to every query: a handful of map probes per query costs
	// more than scanning a short list, and sharded tiles hold only a few
	// dozen mobiles each — the grid exists for the monolithic city,
	// where one medium carries the full client population.
	binned  []*Radio
	mcells  map[cellKey][]*Radio
	gridded bool
	sweepAt time.Duration // next mandatory re-bin (zero forces one)

	// unbinned holds mobiles with no declared speed bound; they are
	// appended to every query, like the pre-grid mobile list.
	unbinned []*Radio
}

// gridThreshold is the per-channel mobile population above which the
// drift-bounded grid switches on. Below it, appending the whole binned
// list beats probing a ring of grid cells. The switch is one-way: a
// population that shrinks again just makes the periodic sweeps cheap.
const gridThreshold = 32

// mediumIndex is the medium's full registry: one channelIndex per tuned
// channel, indexed by channel number (untuned radios, channel 0, hear
// nothing and are not indexed; its slot stays nil).
type mediumIndex struct {
	cellSize float64
	chans    [wifi.MaxChannel + 1]*channelIndex

	// vmax is the largest declared mobile speed; sweepPeriod =
	// cellSize/vmax keeps every bin within one cell of the truth (zero
	// while only speed-0 mobiles are binned: their bins never stale).
	vmax        float64
	sweepPeriod time.Duration
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

// noteSpeed raises the fleet speed bound. A faster bound shortens the
// sweep period, and bins placed under the old period may already be
// staler than the new one allows — forcing an immediate sweep on every
// channel restores the invariant before the next query.
func (ix *mediumIndex) noteSpeed(v float64) {
	if v <= ix.vmax {
		return
	}
	ix.vmax = v
	ix.sweepPeriod = time.Duration(ix.cellSize / v * float64(time.Second))
	for _, ci := range ix.chans {
		if ci != nil {
			ci.sweepAt = 0
		}
	}
}

// byReg orders radios by registration, the linear scan's iteration order.
func byReg(a, b *Radio) int { return int(a.regIdx - b.regIdx) }

// insertOrdered adds r to a registration-ordered slice. Channel changes
// are rare (a handful per simulated second) and per-cell lists are small,
// so the O(n) shift is noise next to the per-frame scans it avoids.
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
		ci = &channelIndex{mcells: make(map[cellKey][]*Radio)}
		ix.chans[ch] = ci
	}
	switch {
	case r.static:
		r.binCell = ix.cellOf(r.position())
		ci.statics = insertOrdered(ci.statics, r)
		ci.grid.include(r.binCell, len(ci.statics))
	case r.maxSpeed >= 0:
		ci.binned = insertOrdered(ci.binned, r)
		if ci.gridded {
			r.binCell = ix.cellOf(r.position())
			r.inMCells = true
			ci.mcells[r.binCell] = insertOrdered(ci.mcells[r.binCell], r)
		}
	default:
		ci.unbinned = insertOrdered(ci.unbinned, r)
	}
}

// remove unregisters r from channel ch.
func (ix *mediumIndex) remove(r *Radio, ch int) {
	ci := ix.chans[ch]
	if ci == nil {
		return
	}
	switch {
	case r.static:
		ci.statics = removeRadio(ci.statics, r)
		ci.grid.stale = true
	case r.maxSpeed >= 0:
		ci.binned = removeRadio(ci.binned, r)
		if r.inMCells {
			r.inMCells = false
			if cell := removeRadio(ci.mcells[r.binCell], r); len(cell) > 0 {
				ci.mcells[r.binCell] = cell
			} else {
				delete(ci.mcells, r.binCell)
			}
		}
	default:
		ci.unbinned = removeRadio(ci.unbinned, r)
	}
}

// maybeSweep re-bins every speed-bounded mobile on ch if the channel's
// sweep deadline has passed, restoring the one-cell drift bound. Callers
// invoke it with the current virtual time before consulting bins. The
// re-bin samples positions through the same pure PositionAt(t) paths the
// delivery predicate uses, so when it runs has no observable effect —
// any sweep schedule satisfying the drift bound yields candidate
// supersets, and the exact predicates downstream decide delivery.
func (ix *mediumIndex) maybeSweep(ch int, now time.Duration) {
	ci := ix.channel(ch)
	if ci == nil || now < ci.sweepAt {
		return
	}
	if !ci.gridded {
		if len(ci.binned) < gridThreshold {
			return // stay listy; sweepAt stays 0, re-checked next query
		}
		ci.gridded = true
	}
	clear(ci.mcells)
	for _, r := range ci.binned {
		r.binCell = ix.cellOf(r.position())
		r.inMCells = true
		ci.mcells[r.binCell] = append(ci.mcells[r.binCell], r)
	}
	if ix.sweepPeriod > 0 {
		ci.sweepAt = now + ix.sweepPeriod
	} else {
		// Only speed-0 mobiles are binned: their bins never go stale.
		ci.sweepAt = math.MaxInt64
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

// walk calls visit, in place, with each run of channel-ch radios
// registered in the [lo, hi] cell rectangle: the statics of each grid row
// the rectangle crosses (one contiguous run per row, row-major, rebuilding
// the grid first if an add or remove left it stale); the speed-bounded
// mobiles of the rectangle padded by one ring, cell by cell, once their
// grid is on (a bin can trail its radio by at most one cell side — see
// maybeSweep), or the whole binned list while it is off; then every
// unbinned mobile. The union is a superset of the channel's radios within
// the query radius, in no particular order: callers apply the exact
// predicate as they go, and sort what they keep when order matters. visit
// must not change the registry; runs alias it.
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
	if ci.gridded {
		for cy := lo.cy - 1; cy <= hi.cy+1; cy++ {
			for cx := lo.cx - 1; cx <= hi.cx+1; cx++ {
				if cell := ci.mcells[cellKey{cx, cy}]; len(cell) > 0 {
					visit(cell)
				}
			}
		}
	} else {
		visit(ci.binned)
	}
	visit(ci.unbinned)
}

// covers reports whether a walk over the [lo, hi] rectangle on ch visits
// r: unbinned mobiles on the channel always, statics when their cell lies
// in the query rectangle, binned mobiles when their bin lies in the
// one-ring-padded rectangle (the rectangle walk consults). The unicast
// address path uses it to visit exactly the addressed radios a walk would
// have, and both paths to union in an addressed radio the walk missed
// without duplicating it.
func (ix *mediumIndex) covers(r *Radio, ch int, lo, hi cellKey) bool {
	if r.channel != ch {
		return false
	}
	var c cellKey
	switch {
	case r.static:
		c = r.binCell
	case r.inMCells:
		c = r.binCell
		lo = cellKey{lo.cx - 1, lo.cy - 1}
		hi = cellKey{hi.cx + 1, hi.cy + 1}
	default:
		return true // whole-list mobiles are always walked
	}
	return c.cx >= lo.cx && c.cx <= hi.cx && c.cy >= lo.cy && c.cy <= hi.cy
}
