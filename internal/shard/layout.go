// Package shard runs one city-scale simulation across CPU cores while
// keeping the deterministic-replay guarantee the whole repo is built
// on: an N-worker run is byte-identical to a 1-worker run for every N
// and every GOMAXPROCS.
//
// The world is partitioned into a 2-D grid of rectangular tiles, each
// owning its own sim kernel, radio medium, APs and resident clients — a
// full independent simulation. Tiles advance in fixed lockstep epochs
// under a conservative barrier; everything that crosses a tile boundary
// (beacon halos, client migration) is exchanged single-threaded at the
// barrier in tile-index order.
//
// The load-bearing design decision: the tile layout is a pure function
// of the scenario geometry, the plan's AP density and the radio
// lookahead — NEVER of the worker count. A "-shards 8" run advances the
// same tiles as a "-shards 1" run, just more of them concurrently, so
// each tile's event stream (and therefore every metric, trace and CSV
// the run exports) cannot depend on scheduling. Determinism is
// structural, not tested-into-existence — though the tests enforce it
// anyway.
package shard

import (
	"fmt"
	"sort"
	"time"

	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/scenario"
)

// Epoch bounds. The lower bound keeps the barrier overhead (halo
// routing, migration scans) off the hot path; the upper bound keeps
// halo beacons from arriving absurdly stale (they are mirrored into the
// neighbor at the next barrier, so the epoch is the staleness bound).
const (
	minEpoch = 100 * time.Millisecond
	maxEpoch = time.Second
)

// speedSpread mirrors CityGridSpec's per-vehicle speed draw: individual
// speeds vary ±30% around the nominal, so the fastest client moves at
// 1.3× SpeedMS.
const speedSpread = 1.3

// Layout is the derived spatial decomposition of a city: an Nx×Ny grid
// of rectangular tiles whose boundaries are load-aware — placed at
// AP-count quantiles of the plan so dense downtown columns get narrow
// tiles and sparse outskirts get wide ones — then clamped so every span
// is at least twice the halo (a mirror only ever reaches the adjacent
// tile).
type Layout struct {
	// Halo is the mirror depth in meters: transmissions within Halo of a
	// tile edge are ghosted into the adjacent tile(s) at the next epoch
	// boundary. Halo ≥ radio range + the farthest a client can stray
	// past its tile within one epoch, so an edge client never misses a
	// beacon it could physically hear.
	Halo float64
	// Epoch is the lockstep advance quantum.
	Epoch time.Duration
	// Nx, Ny are the grid dimensions; NTiles = Nx*Ny. Tiles are indexed
	// row-major: index = iy*Nx + ix.
	Nx, Ny int
	NTiles int
	// XBounds (len Nx+1) and YBounds (len Ny+1) are the column/row
	// boundaries, XBounds[0]=0 and XBounds[Nx]=spec.AreaW. Tile (ix,iy) owns
	// the half-open rect [XBounds[ix],XBounds[ix+1]) × [YBounds[iy],
	// YBounds[iy+1]).
	XBounds, YBounds []float64
}

// DeriveLayout computes the tile decomposition for a planned city.
// The result depends only on the scenario geometry, the plan's AP
// positions and the radio config — not on worker count, GOMAXPROCS, or
// any runtime state — which is what makes sharded runs reproducible
// across machines.
func DeriveLayout(spec scenario.CityGridSpec, plan scenario.CityPlan) Layout {
	rc := spec.Radio
	if rc.Range == 0 {
		rc = radio.Defaults()
	}
	rng := rc.Range
	cs := rc.CSRange
	if cs <= 0 {
		cs = 2 * rng
	}
	// The halo starts at carrier-sense range: that is the farthest any
	// transmission has an effect, so a mirror that deep captures
	// everything a tile-edge station could perceive.
	h := cs
	if h < rng {
		h = rng
	}
	vmax := speedSpread * spec.SpeedMS
	var epoch time.Duration
	if vmax <= 0 {
		epoch = maxEpoch
	} else {
		// Largest epoch such that a client straying past its tile still
		// sits within (halo − range) of it — i.e. still hears every
		// mirrored beacon — clamped to the practical window.
		epoch = time.Duration((h - rng) / vmax * float64(time.Second))
		if epoch > maxEpoch {
			epoch = maxEpoch
		}
		if epoch < minEpoch {
			epoch = minEpoch
			// The clamp can let a very fast client outrun the halo; grow
			// the halo to keep the coverage invariant.
			if need := rng + vmax*epoch.Seconds(); need > h {
				h = need
			}
		}
	}
	nx := int(spec.AreaW / (2 * h))
	if nx < 1 {
		nx = 1
	}
	ny := int(spec.AreaH / (2 * h))
	if ny < 1 {
		ny = 1
	}
	xs := make([]float64, 0, len(plan.APs))
	ys := make([]float64, 0, len(plan.APs))
	for _, ap := range plan.APs {
		xs = append(xs, ap.Pos.X)
		ys = append(ys, ap.Pos.Y)
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return Layout{
		Halo: h, Epoch: epoch,
		Nx: nx, Ny: ny, NTiles: nx * ny,
		XBounds: loadBounds(xs, nx, spec.AreaW, 2*h),
		YBounds: loadBounds(ys, ny, spec.AreaH, 2*h),
	}
}

// loadBounds splits [0, w] into n spans holding equal AP counts (the
// load-aware part: boundaries sit at AP-coordinate quantiles), then
// clamps every span to at least minSpan so a halo only ever reaches the
// immediately adjacent tile. Feasible because n ≤ w/minSpan by
// construction. With no APs the split degenerates to equal widths.
func loadBounds(sorted []float64, n int, w, minSpan float64) []float64 {
	b := make([]float64, n+1)
	b[0], b[n] = 0, w
	for i := 1; i < n; i++ {
		if len(sorted) > 0 {
			b[i] = sorted[(i*len(sorted))/n]
		} else {
			b[i] = w * float64(i) / float64(n)
		}
	}
	// Forward then backward clamp: after the two passes the bounds are
	// strictly increasing with every span ≥ minSpan, ends pinned at the
	// world edges.
	for i := 1; i < n; i++ {
		if b[i] < b[i-1]+minSpan {
			b[i] = b[i-1] + minSpan
		}
	}
	for i := n - 1; i >= 1; i-- {
		if b[i] > b[i+1]-minSpan {
			b[i] = b[i+1] - minSpan
		}
	}
	return b
}

// TileOf maps a position to its owning tile (row-major index), clamping
// positions that strayed outside the world (mobility keeps clients
// inside, but the clamp makes the mapping total). Boundaries belong to
// the upper tile: the rects are half-open.
func (l Layout) TileOf(p geo.Point) int {
	return l.tileIdx(l.YBounds, l.Ny, p.Y)*l.Nx + l.tileIdx(l.XBounds, l.Nx, p.X)
}

// tileIdx returns the index of the span owning x: the number of
// interior boundaries ≤ x, clamped to [0, n-1].
func (l Layout) tileIdx(bounds []float64, n int, x float64) int {
	in := bounds[1:n] // interior boundaries only
	return sort.Search(len(in), func(j int) bool { return in[j] > x })
}

func (l Layout) String() string {
	return fmt.Sprintf("%d tile(s) (%d×%d grid), halo %.0f m, epoch %v",
		l.NTiles, l.Nx, l.Ny, l.Halo, l.Epoch)
}
