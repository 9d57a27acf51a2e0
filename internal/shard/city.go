package shard

import (
	"context"
	"errors"
	"runtime/pprof"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/geo"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/sweep"
	"spider/internal/wifi"
)

// haloRec is one boundary beacon captured for mirroring, held once
// however many neighbours hear it: the frame and its body by value, plus
// a mask of the capturing tile's neighbour slots it reaches. Neighbours
// inject the record in place, so a mirror is never copied per receiver.
type haloRec struct {
	frame wifi.Frame
	body  wifi.BeaconBody
	ch    int
	pos   geo.Point
	mask  uint8
}

// neighbor is one adjacent tile (up to 8 in the 2-D grid) with its rect,
// precomputed so the capture hook is a handful of float compares. back
// is this tile's bit in the neighbour's record masks: the neighbour's
// records whose mask carries it are the ones mirrored here.
type neighbor struct {
	dst            int
	back           uint8
	x0, x1, y0, y1 float64
}

// dist is the L∞ distance from p to the neighbor's rect (0 inside).
// Chebyshev rather than Euclidean makes corner capture conservative: a
// transmission diagonally within halo of a corner-adjacent tile is
// mirrored even when its Euclidean reach falls short. Extra mirrors are
// harmless — the receiving medium re-applies its own range check.
func (n neighbor) dist(p geo.Point) float64 {
	var dx, dy float64
	if p.X < n.x0 {
		dx = n.x0 - p.X
	} else if p.X > n.x1 {
		dx = p.X - n.x1
	}
	if p.Y < n.y0 {
		dy = n.y0 - p.Y
	} else if p.Y > n.y1 {
		dy = p.Y - n.y1
	}
	if dy > dx {
		return dy
	}
	return dx
}

// Tile is one rectangle of the city: a complete self-contained
// simulation owning the APs placed inside its bounds and the clients
// currently resident there.
type Tile struct {
	Index int
	World *scenario.World
	// The owned rect [X0,X1) × [Y0,Y1).
	X0, X1, Y0, Y1 float64

	// halo double-buffers the boundary beacons this tile captured:
	// halo[cur] fills during the running epoch (appended only by this
	// tile's own single-threaded simulation); halo[cur^1] holds the
	// previous epoch's records, which every neighbour reads in place at
	// its next epoch start. The barrier only flips cur, so the records
	// are the tile's own and the buffers' capacity is its peak epoch.
	halo [2][]haloRec
	cur  int
	// haloCap is the records one epoch is expected to capture, from the
	// plan (see sizeHalo). A buffer is sized to it the first time the
	// tile fills it; append still grows it past that if it must.
	haloCap int

	// neighbors are the adjacent tiles this tile can mirror into, in
	// ascending tile order.
	neighbors []neighbor
}

// slotOf returns the index of tile dst among t's neighbours, or -1.
func (t *Tile) slotOf(dst int) int {
	for k, nb := range t.neighbors {
		if nb.dst == dst {
			return k
		}
	}
	return -1
}

// City is a sharded city-scale run: the planned world split into a 2-D
// grid of tiles advancing in lockstep epochs.
//
// Build order mirrors the single-world convention: NewCity, then
// EnableObs (optional), then ApplyChaos (optional), then Run.
type City struct {
	Spec   scenario.CityGridSpec
	Plan   scenario.CityPlan
	Layout Layout
	Tiles  []*Tile

	// Workers bounds how many tiles are built, advanced through an
	// epoch, exported or restored concurrently (0 = all cores). It is
	// the ONLY thing "-shards" controls; the tile layout — and therefore
	// every simulated and every checkpointed byte — is identical at any
	// value.
	Workers int

	// Migrations counts clients handed between tiles at barriers.
	Migrations uint64

	// Injectors holds the per-tile fault injectors after ApplyChaos
	// (index-aligned with Tiles).
	Injectors []*fault.Injector

	cfg core.Config
	now time.Duration
	obs []*obs.Obs

	// Per-client hot state in struct-of-arrays layout, indexed by plan
	// order (which is also MAC order: client MACs embed the plan ID).
	// The barrier migration scan walks these slices linearly — no map
	// iteration anywhere on the per-epoch path, so iteration order is a
	// property of the plan, never of Go's map randomization.
	mobs         []geo.Mobility
	clients      []*scenario.Client
	residentTile []int32

	// migLog records every barrier migration in execution order, so a
	// checkpoint restore can replay the exact sequence of RemoveClient/
	// AdoptClient calls — reproducing each medium's radio registration
	// order, which a fresh build alone cannot.
	migLog []MigRecord
}

// MigRecord is one client handoff between tiles, by plan identity.
type MigRecord struct {
	Client   int32
	From, To int32
}

// NewCity plans the city and builds its tiles. Every AP and client is
// placed by the plan's global identity — MAC addresses, DHCP subnets
// and fault streams are position-derived, not tile-derived — so the
// same spec yields the same city under any layout. The tiles are built
// on the worker pool, at most workers at a time; a panic while building
// one panics out of NewCity as the pool's *sweep.PanicError naming the
// tile.
func NewCity(spec scenario.CityGridSpec, cfg core.Config, workers int) *City {
	plan := spec.Plan()
	lay := DeriveLayout(spec, plan)
	c := &City{
		Spec: spec, Plan: plan, Layout: lay, Workers: workers,
		cfg:          cfg,
		mobs:         make([]geo.Mobility, len(plan.Clients)),
		clients:      make([]*scenario.Client, len(plan.Clients)),
		residentTile: make([]int32, len(plan.Clients)),
	}
	rcfg := spec.Radio
	if rcfg.Range == 0 {
		rcfg = radio.Defaults()
	}
	for iy := 0; iy < lay.Ny; iy++ {
		for ix := 0; ix < lay.Nx; ix++ {
			c.Tiles = append(c.Tiles, &Tile{
				Index: iy*lay.Nx + ix,
				X0:    lay.XBounds[ix], X1: lay.XBounds[ix+1],
				Y0: lay.YBounds[iy], Y1: lay.YBounds[iy+1],
			})
		}
	}
	for iy := 0; iy < lay.Ny; iy++ {
		for ix := 0; ix < lay.Nx; ix++ {
			t := c.Tiles[iy*lay.Nx+ix]
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					jx, jy := ix+dx, iy+dy
					if (dx == 0 && dy == 0) || jx < 0 || jx >= lay.Nx || jy < 0 || jy >= lay.Ny {
						continue
					}
					j := jy*lay.Nx + jx
					t.neighbors = append(t.neighbors, neighbor{
						dst: j,
						x0:  lay.XBounds[jx], x1: lay.XBounds[jx+1],
						y0: lay.YBounds[jy], y1: lay.YBounds[jy+1],
					})
				}
			}
		}
	}
	for _, t := range c.Tiles {
		for k := range t.neighbors {
			nb := &t.neighbors[k]
			nb.back = 1 << c.Tiles[nb.dst].slotOf(t.Index)
		}
	}

	// Each tile's share of the plan, in plan order.
	tileAPs := make([][]int32, lay.NTiles)
	for i, ap := range plan.APs {
		tile := lay.TileOf(ap.Pos)
		tileAPs[tile] = append(tileAPs[tile], int32(i))
	}
	tileClients := make([][]int32, lay.NTiles)
	for i, cp := range plan.Clients {
		tile := lay.TileOf(cp.Mob.PositionAt(0))
		c.mobs[i] = cp.Mob
		c.residentTile[i] = int32(tile)
		tileClients[tile] = append(tileClients[tile], int32(i))
	}

	// Build the tile worlds on the worker pool. A task reads only the
	// plan and writes only its own tile, its world and its clients'
	// slots of c.clients; within the tile it adds every AP, then every
	// client, in plan order, which is the add sequence the world would
	// see from a serial build. A task returns no error; one that panics
	// panics out of forTiles.
	_ = c.forTiles(func(i int) error {
		t := c.Tiles[i]
		w := scenario.NewWorld(sweep.TaskSeed(spec.Seed, "shard.tile", i), rcfg)
		t.World = w
		for _, ai := range tileAPs[i] {
			w.AddAP(plan.APs[ai].Spec())
		}
		for _, ci := range tileClients[i] {
			c.clients[ci] = w.AddClientAddr(plan.Clients[ci].Addr(), c.clientCfg(int(ci)), c.mobs[ci])
		}
		w.Kernel.Reserve(w.Kernel.Len() + slotsPerClient*len(w.Clients))
		if lay.NTiles > 1 {
			c.sizeHalo(t)
			w.Medium.SetTxObserver(func(f *wifi.Frame, ch int, _ time.Duration, txPos geo.Point) {
				c.captureHalo(t, f, ch, txPos)
			})
		}
		return nil
	})
	return c
}

// slotsPerClient is the event-arena room a tile reserves per resident
// client on top of the events its build queued. In the metro storm's
// first virtual second (25,000 clients joining at once, 1,369 tiles,
// seeds 1-3) a tile's slot high-water above its build-time events was
// 5.6 per client over the whole city, 5.5 at the median tile, 7.8-7.9
// at the 90th percentile, 10.3-10.5 at the 99th and 18 at the most.
// Eight covers nine tiles in ten; the rest grow by doubling as before.
// Reserving at build keeps the arena's growth copies out of the first
// second, when the join storm already dominates allocation.
const slotsPerClient = 8

// sizeHalo sets t.haloCap from the plan and sizes the buffer the first
// epoch fills. Only APs beacon broadcast, and an AP is static, so the
// APs within halo of a neighbour are exactly the tile's sources of
// records: each captures at most Epoch/BeaconInterval + 1 beacons per
// epoch, whatever the phase of its beacon clock. A fresh city grown by
// append instead leaves every outgrown copy as garbage in its first
// epoch, the storm's. An AP restarted onto a shorter interval would
// outgrow the size; append covers that.
func (c *City) sizeHalo(t *Tile) {
	n := 0
	for _, node := range t.World.APs {
		bi := node.AP.BeaconInterval()
		if bi <= 0 || c.haloMask(t, node.Spec.Pos) == 0 {
			continue
		}
		n += int(c.Layout.Epoch/bi) + 1
	}
	t.haloCap = n
	t.halo[t.cur] = make([]haloRec, 0, n)
}

// haloMask returns the neighbour slots of t within halo of pos.
func (c *City) haloMask(t *Tile, pos geo.Point) uint8 {
	var mask uint8
	for k, nb := range t.neighbors {
		if nb.dist(pos) <= c.Layout.Halo {
			mask |= 1 << k
		}
	}
	return mask
}

// clientCfg is the driver config for plan client i: the shared city
// config plus the client's planned admission time. StartAt rides a
// copy — c.cfg itself stays untouched — so a migration or a restore
// replay rebuilds the driver with the same admission alarm the plan
// drew, whichever tile ends up owning the client.
func (c *City) clientCfg(i int) core.Config {
	cfg := c.cfg
	cfg.StartAt = c.Plan.Clients[i].JoinAt
	return cfg
}

// captureHalo records a boundary beacon for the neighbours within halo
// of it. Only broadcast beacons cross: they are what populates scan
// tables, they carry no per-client state, and their sources (APs) are
// static inside their tile — so a captured frame only ever concerns
// adjacent tiles. Halo-injected frames are never re-captured (injection
// bypasses the transmit path), so mirrors cannot cascade across the
// city. The record copies the beacon and its body: the source medium
// recycles pooled frames (and their bodies) at transmit completion, long
// before the neighbours inject the mirror next epoch. Its frame.Body is
// pointed at the record's own body once the epoch ends (sealHalo),
// because appends still move the records until then.
func (c *City) captureHalo(t *Tile, f *wifi.Frame, ch int, pos geo.Point) {
	if f.Type != wifi.TypeBeacon || !f.DA.IsBroadcast() || f.Halo {
		return
	}
	body, ok := f.Body.(*wifi.BeaconBody)
	if !ok {
		return
	}
	mask := c.haloMask(t, pos)
	if mask == 0 {
		return
	}
	buf := &t.halo[t.cur]
	if cap(*buf) == 0 {
		*buf = make([]haloRec, 0, t.haloCap)
	}
	*buf = append(*buf, haloRec{frame: *f, body: *body, ch: ch, pos: pos, mask: mask})
}

// sealHalo readies captured records for injection: mark each a halo
// mirror and point its frame at the record's own body. It runs once the
// buffer has stopped growing.
func sealHalo(recs []haloRec) {
	for i := range recs {
		recs[i].frame.Halo = true
		recs[i].frame.Body = &recs[i].body
	}
}

// inbound calls fn, in injection order, on every record mirrored into t
// at the last barrier: neighbours in ascending tile order, each one's
// previous-epoch records in capture order, those whose mask carries t's
// bit. Readers never write a record, so neighbours share them in place.
func (c *City) inbound(t *Tile, fn func(r *haloRec)) {
	for _, nb := range t.neighbors {
		src := c.Tiles[nb.dst]
		recs := src.halo[src.cur^1]
		for i := range recs {
			if recs[i].mask&nb.back != 0 {
				fn(&recs[i])
			}
		}
	}
}

// Run advances the whole city to the given virtual time in lockstep
// epochs. Within an epoch each tile advances independently (fanned out
// over the worker pool); at the barrier the exchange runs
// single-threaded in tile order. Each tile epoch is a pure function of
// the tile's prior state plus the records its neighbours captured last
// epoch, read in deterministic order, so the result is invariant in
// Workers. A tile that panics fails the run: Run returns the pool's
// *sweep.PanicError naming the tile and leaves the city mid-epoch.
func (c *City) Run(until time.Duration) error {
	// Profiles split the run at the admission transient: the t=0 storm
	// resolves within the first virtual second, and a staggered run
	// extends the window by its ramp. CPU samples taken inside the loop
	// carry phase=join-storm or phase=steady-state, so `go tool pprof
	// -tagfocus` can cost the storm separately from cruise.
	stormEnd := time.Second + c.Spec.JoinSpread
	for c.now < until {
		t1 := c.now + c.Layout.Epoch
		if t1 > until {
			t1 = until
		}
		phase := "steady-state"
		if c.now < stormEnd {
			phase = "join-storm"
		}
		var err error
		pprof.Do(context.Background(), pprof.Labels("phase", phase), func(ctx context.Context) {
			_, err = sweep.RunN(ctx, c.Workers, len(c.Tiles), func(_ context.Context, i int) (struct{}, error) {
				c.injectHalo(c.Tiles[i])
				c.runTile(c.Tiles[i], t1)
				return struct{}{}, nil
			})
			if err == nil {
				c.exchange(t1)
			}
		})
		if err != nil {
			return err
		}
		c.now = t1
	}
	return nil
}

// forTiles runs fn(i) for every tile i on the worker pool, at most
// Workers at a time. Every tile runs whatever the others return, and the
// error returned is the lowest-indexed tile's, so which error a caller
// sees never depends on scheduling. A panic in fn panics out of forTiles
// as the pool's *sweep.PanicError, which names the tile.
func (c *City) forTiles(fn func(i int) error) error {
	errs := make([]error, len(c.Tiles))
	_, err := sweep.RunN(context.Background(), c.Workers, len(c.Tiles), func(_ context.Context, i int) (struct{}, error) {
		errs[i] = fn(i)
		return struct{}{}, nil
	})
	if err != nil {
		// The tasks return no error, so err wraps a task's panic.
		var pe *sweep.PanicError
		errors.As(err, &pe)
		panic(pe)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// injectHalo injects the beacons t's neighbours mirrored here at the
// last barrier (ghost beacons land at epoch start, at most one epoch
// stale). Delivery is synchronous and receivers copy, so injection only
// reads the neighbours' records. It is the only part of an epoch that
// reads another tile's state.
func (c *City) injectHalo(t *Tile) {
	m := t.World.Medium
	c.inbound(t, func(r *haloRec) { m.InjectFrame(&r.frame, r.ch, r.pos) })
}

// runTile advances t's world to t1 and seals the records it captured.
func (c *City) runTile(t *Tile, t1 time.Duration) {
	t.World.Run(t1)
	sealHalo(t.halo[t.cur])
}

// exchange is the barrier phase: flip every tile's halo buffers
// and migrate clients whose position crossed a tile boundary. Strictly
// single-threaded; the flip moves no record, and the migration scan
// walks the plan-ordered client arrays — a linear pass over three
// parallel slices, cache-friendly at metro scale and ordered by planned
// identity, never by scheduling or map iteration.
func (c *City) exchange(t1 time.Duration) {
	for _, t := range c.Tiles {
		t.cur ^= 1
		t.halo[t.cur] = t.halo[t.cur][:0]
	}
	for i := range c.clients {
		dst := int32(c.Layout.TileOf(c.mobs[i].PositionAt(t1)))
		if dst == c.residentTile[i] {
			continue
		}
		recs := c.Tiles[c.residentTile[i]].World.RemoveClient(c.clients[i])
		c.Tiles[dst].World.AdoptClient(c.clients[i], c.clientCfg(i), c.mobs[i], recs)
		c.migLog = append(c.migLog, MigRecord{Client: int32(i), From: c.residentTile[i], To: dst})
		c.residentTile[i] = dst
		c.Migrations++
	}
}

// Now returns the city's lockstep virtual time.
func (c *City) Now() time.Duration { return c.now }

// EnableObs attaches one observation bundle per tile (shard-tagged
// tracers, per-tile registries). Call before ApplyChaos and Run.
func (c *City) EnableObs(traceCap int, filter ...string) {
	for _, t := range c.Tiles {
		o := obs.New(traceCap)
		o.Tracer.SetShard(t.Index)
		o.Tracer.SetFilter(filter...)
		t.World.AttachObs(o)
		c.obs = append(c.obs, o)
	}
}

// MergedSnapshot folds the per-tile registries in tile order. Because a
// client always resides in exactly one tile and reports lifetime
// totals, the merged counters equal a single-world run's — the sum is
// invariant under any migration history.
func (c *City) MergedSnapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, len(c.obs))
	for i, o := range c.obs {
		snaps[i] = o.Reg.Snapshot()
	}
	return obs.MergeSnapshots(snaps...)
}

// TraceEvents returns the global timeline: per-tile traces merged by
// (timestamp, shard).
func (c *City) TraceEvents() []obs.TraceEvent {
	streams := make([][]obs.TraceEvent, len(c.obs))
	for i, o := range c.obs {
		streams[i] = o.Tracer.Events()
	}
	return obs.MergeEvents(streams...)
}

// ApplyChaos arms a fault profile on every tile. All streams derive
// from the *world* seed with global target indices (the AP's plan
// identity, the plan's channel order), so a given AP misbehaves
// identically under any tile layout.
//
// Unlike the single-world ApplyChaos, no driver is attached: clients
// migrate between tiles and a shut-down driver would read as deadlocked
// to the liveness checker. Recovery/TTR accounting therefore stays
// zero in sharded runs; injected-fault counts are exact.
func (c *City) ApplyChaos(cfg fault.Config) {
	channels := c.Plan.Channels()
	for ti, t := range c.Tiles {
		inj := fault.NewInjector(t.World.Kernel, cfg, c.Spec.Seed)
		for _, n := range t.World.APs {
			gi := int(n.Spec.ID) - 1
			inj.AttachAP(n.AP, gi)
			inj.AttachLink(n.Link, gi)
		}
		inj.AttachMedium(t.World.Medium, channels)
		if c.obs != nil {
			inj.AttachObs(c.obs[ti])
		}
		c.Injectors = append(c.Injectors, inj)
	}
}

// FaultStats merges the per-tile fault ledgers into one per-class
// ledger in canonical class order (nil without ApplyChaos). Tiles
// attach disjoint target sets, so the per-class sums equal a
// single-world injector's and are independent of the tile layout.
func (c *City) FaultStats() []fault.ClassStat {
	if len(c.Injectors) == 0 {
		return nil
	}
	merged := make([]fault.ClassStat, 0, len(fault.Classes))
	for ci, class := range fault.Classes {
		cs := fault.ClassStat{Class: class}
		for _, inj := range c.Injectors {
			s := inj.Snapshot()[ci]
			cs.Injected += s.Injected
			cs.Skipped += s.Skipped
			cs.Recovered += s.Recovered
			cs.TTRTotal += s.TTRTotal
			if s.TTRMax > cs.TTRMax {
				cs.TTRMax = s.TTRMax
			}
		}
		merged = append(merged, cs)
	}
	return merged
}

// QuarantinedTiles returns nil: no tile is ever quarantined, because a
// tile panic fails Run instead. Its one caller is cmd/spider-bench's
// city workload check.
func (c *City) QuarantinedTiles() []int { return nil }

// TotalInjected sums injected faults across every tile's injector.
func (c *City) TotalInjected() uint64 {
	var t uint64
	for _, inj := range c.Injectors {
		t += inj.TotalInjected()
	}
	return t
}

// Clients returns every client in the city ordered by MAC address — an
// order derived from planned identity, independent of which tile each
// client currently resides in. c.clients is in plan order, which is
// MAC order: plan client i has ID i+1, written big-endian into its
// address.
func (c *City) Clients() []*scenario.Client {
	return append([]*scenario.Client(nil), c.clients...)
}

// InvariantsTotal sums lifetime invariant violations across all
// clients.
func (c *City) InvariantsTotal() uint64 {
	var t uint64
	for _, cl := range c.clients {
		t += cl.InvariantsTotal()
	}
	return t
}
