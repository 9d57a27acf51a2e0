package scenario

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// CityGridSpec parameterizes a city-scale world: hundreds-to-thousands
// of APs scattered over a square-kilometer area and a population of
// vehicles circling their own downtown blocks. This is the scale the
// medium's spatial index exists for — the paper's drives see tens of
// APs; a city sees thousands — and the workload behind the
// infrastructure-density sweeps on the roadmap.
type CityGridSpec struct {
	Seed int64
	// AreaW, AreaH are the city extent in meters.
	AreaW, AreaH float64
	// NumAPs scattered uniformly over the area.
	NumAPs int
	// NumClients is the vehicle population; Plan draws one route per
	// client.
	NumClients int
	// Mix assigns AP channels (defaults to the Amherst survey mix).
	Mix geo.ChannelMix
	// SpeedMS is the nominal vehicle speed; individual vehicles vary
	// ±30% around it.
	SpeedMS float64
	// BlockMinM/BlockMaxM bound each vehicle's loop side length.
	BlockMinM, BlockMaxM float64
	// BackhaulKbps draws each AP's wired rate; nil uses the heterogeneous
	// urban spread.
	BackhaulKbps func(r *rand.Rand) int
	// Radio overrides the medium defaults when non-zero.
	Radio radio.Config
	// JoinSpread staggers client admission: each planned client draws a
	// start offset in [0, JoinSpread) and its driver stays dormant —
	// radio untuned, no timers — until that offset passes. Zero (the
	// default) admits the whole fleet at t=0, the legacy join storm,
	// and leaves the plan's random sequence untouched. Offsets are
	// drawn in Plan, after every legacy draw, so a staggered plan is a
	// pure extension of the unstaggered one and stays byte-identical at
	// any -shards/-workers value.
	JoinSpread time.Duration
	// JoinRamp shapes the admission offsets: "" or "uniform" spreads
	// them evenly over the window; "exp" front-loads them (truncated
	// exponential, quarter-window mean) so admission decays like a
	// morning commute rather than a flat ramp.
	JoinRamp string
}

// CityGrid returns a dense 3×3 km urban deployment with the given AP and
// client populations and defaults matching the vehicular drives.
func CityGrid(seed int64, numAPs, numClients int) CityGridSpec {
	return CityGridSpec{
		Seed:       seed,
		AreaW:      3000,
		AreaH:      3000,
		NumAPs:     numAPs,
		NumClients: numClients,
		Mix:        geo.AmherstMix(),
		SpeedMS:    10,
		BlockMinM:  200,
		BlockMaxM:  600,
	}
}

// clientMobility draws one vehicle's rectangular loop (a circuit around
// a random block, entered at a random offset) from the plan's stream.
func (s CityGridSpec) clientMobility(rng *rand.Rand) *geo.RouteMobility {
	bw := s.BlockMinM + rng.Float64()*(s.BlockMaxM-s.BlockMinM)
	bh := s.BlockMinM + rng.Float64()*(s.BlockMaxM-s.BlockMinM)
	ox := rng.Float64() * (s.AreaW - bw)
	oy := rng.Float64() * (s.AreaH - bh)
	route := geo.NewRoute(
		geo.Point{X: ox, Y: oy},
		geo.Point{X: ox + bw, Y: oy},
		geo.Point{X: ox + bw, Y: oy + bh},
		geo.Point{X: ox, Y: oy + bh},
		geo.Point{X: ox, Y: oy},
	)
	speed := s.SpeedMS * (0.7 + 0.6*rng.Float64())
	return &geo.RouteMobility{
		Route: route, SpeedMS: speed, Loop: true,
		Offset: rng.Float64() * route.Length(),
	}
}

// APPlan is one planned access point: identity and personality fixed
// before any world exists, so a sharded build can place the same AP —
// same MAC, same DHCP subnet, same latency personality — in whichever
// tile owns its position.
type APPlan struct {
	ID           uint32
	Pos          geo.Point
	Channel      int
	BackhaulKbps int
	OfferLatency sim.Dist
	AckLatency   sim.Dist
}

// Spec converts the plan entry into the APSpec AddAP consumes. The
// explicit latencies keep AddAP off the kernel's personality stream, so
// placement order across tiles cannot perturb AP behavior.
func (a APPlan) Spec() APSpec {
	return APSpec{ID: a.ID, Pos: a.Pos, Channel: a.Channel,
		BackhaulKbps: a.BackhaulKbps,
		OfferLatency: a.OfferLatency, AckLatency: a.AckLatency}
}

// ClientPlan is one planned vehicle: a stable MAC id plus its route.
// The mobility is pure (position is a function of time), so any tile can
// evaluate it without owning the client.
type ClientPlan struct {
	ID  uint32
	Mob *geo.RouteMobility
	// JoinAt is the client's planned admission time (zero = at t=0).
	// Plan-derived, so whichever tile builds — or later adopts — the
	// client arms the same deferred-start alarm.
	JoinAt time.Duration
}

// Addr returns the client's planned MAC address.
func (c ClientPlan) Addr() wifi.Addr { return wifi.NewAddr(0xC0, c.ID) }

// CityPlan is the world-independent description of a city: everything
// random about it, drawn up front from a standalone stream.
type CityPlan struct {
	Spec    CityGridSpec
	APs     []APPlan
	Clients []ClientPlan
}

// Channels returns the distinct planned AP channels in first-seen plan
// order — the canonical global indexing for per-channel fault streams,
// independent of how the plan is split into tiles.
func (p CityPlan) Channels() []int {
	seen := make(map[int]bool)
	var out []int
	for _, ap := range p.APs {
		if !seen[ap.Channel] {
			seen[ap.Channel] = true
			out = append(out, ap.Channel)
		}
	}
	return out
}

// Plan lays out the city without building a world: AP positions,
// channels, backhaul rates and DHCP personalities, and client routes are
// all drawn from a private generator seeded by Spec.Seed. The sharded
// runtime builds one world per tile from the subset of the plan that
// falls inside it; because every random draw happens here, the layout is
// identical for every tile count. Plan is the only way a city is drawn:
// shard.NewCity builds it, and a plain World built from the plan (every
// AP by APPlan.Spec, every client by AddClientAddr) is the same city on
// one kernel.
func (s CityGridSpec) Plan() CityPlan {
	mix := s.Mix
	if mix == nil {
		mix = geo.AmherstMix()
	}
	bk := s.BackhaulKbps
	if bk == nil {
		bk = defaultBackhaulKbps
	}
	rng := rand.New(rand.NewSource(s.Seed ^ 0x63697479706c616e)) // "cityplan"
	plan := CityPlan{Spec: s}
	for i, d := range geo.DeployUniform(rng, s.AreaW, s.AreaH, s.NumAPs, mix) {
		ap := APPlan{ID: uint32(i + 1), Pos: d.Pos, Channel: d.Channel, BackhaulKbps: bk(rng)}
		// Same personality split as AddAP's default branch, pre-drawn so
		// the spec reaching AddAP is fully explicit.
		if rng.Float64() < 0.25 {
			ap.OfferLatency = sim.LogNormal{Mu: math.Log(1.2), Sigma: 0.4, Cap: 10 * time.Second}
			ap.AckLatency = sim.LogNormal{Mu: math.Log(0.4), Sigma: 0.4, Cap: 5 * time.Second}
		} else {
			ap.OfferLatency = sim.LogNormal{Mu: math.Log(0.04), Sigma: 0.8, Cap: 5 * time.Second}
			ap.AckLatency = sim.LogNormal{Mu: math.Log(0.02), Sigma: 0.8, Cap: 5 * time.Second}
		}
		plan.APs = append(plan.APs, ap)
	}
	for i := 0; i < s.NumClients; i++ {
		plan.Clients = append(plan.Clients, ClientPlan{
			ID:  uint32(i + 1),
			Mob: s.clientMobility(rng),
		})
	}
	// Admission offsets draw last, after every legacy draw, so plans
	// with JoinSpread zero consume exactly the historical sequence.
	if s.JoinSpread > 0 {
		for i := range plan.Clients {
			plan.Clients[i].JoinAt = s.drawJoinAt(rng)
		}
	}
	return plan
}

// drawJoinAt draws one admission offset in [0, JoinSpread) under the
// configured ramp shape.
func (s CityGridSpec) drawJoinAt(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	span := float64(s.JoinSpread)
	switch s.JoinRamp {
	case "", "uniform":
		return time.Duration(u * span)
	case "exp", "exponential":
		// Truncated exponential by inverse CDF: quarter-window mean
		// before truncation, support exactly [0, JoinSpread) — the
		// cap redistributes mass smoothly instead of piling an atom at
		// the window's end.
		tau := span / 4
		return time.Duration(-tau * math.Log(1-u*(1-math.Exp(-span/tau))))
	}
	panic("scenario: unknown JoinRamp " + strconv.Quote(s.JoinRamp) + " (want uniform or exp)")
}
