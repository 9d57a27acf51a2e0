package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/metrics"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/shard"
)

func init() {
	register("city", func(o Options) (fmt.Stringer, error) { return CityScale(o) })
}

// CityScale runs the roadmap's infrastructure-density workload — a
// square-kilometer city of open APs with a vehicle fleet running the
// full Spider stack — on the sharded engine, and reports the fleet-wide
// outcome distributions. The result is byte-identical at any -shards
// value: shards only set how many tiles advance concurrently.
//
// Unlike the drive experiments this one exercises hundreds of
// *concurrent* drivers contending for airtime and DHCP servers, which
// is the regime the paper's per-client analysis abstracts away.
func CityScale(o Options) (Figure, error) {
	city, dur, err := cityRun(o, false)
	if err != nil {
		return Figure{}, err
	}
	return cityFigure("city", city, dur), nil
}

// cityTraceCap bounds each tile's trace ring when the archive path
// enables observability. Generous enough that city-scale runs at test
// scales never drop spans (a dropped span would make the archived span
// summary capacity-dependent).
const cityTraceCap = 1 << 15

// cityRun builds and advances the sharded city for the given options.
// withObs attaches per-tile observation bundles (the archive path needs
// the merged registries and trace-span summaries; the plain figure path
// does not pay for them).
func cityRun(o Options, withObs bool) (*shard.City, time.Duration, error) {
	o = o.withDefaults()
	spec := scenario.CityGrid(o.Seed, o.scaleN(1000, 60), o.scaleN(100, 10))
	dur := o.scaleDur(2*time.Minute, 15*time.Second)
	return specRun("city", spec, dur, o, withObs)
}

// specRun builds a city-style spec with the harness's 3-channel
// multi-AP Spider fleet and advances it. Shared by the city and metro
// experiments so both archive through the exact same engine path.
func specRun(id string, spec scenario.CityGridSpec, dur time.Duration, o Options, withObs bool) (*shard.City, time.Duration, error) {
	var co *CityObs
	if withObs {
		co = &CityObs{TraceCap: cityTraceCap}
	}
	city, err := BuildCity(spec, spiderConfig("3ch-multi"), o, co)
	if err == nil {
		err = city.Run(dur)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", id, err)
	}
	return city, dur, nil
}

// CityObs enables per-tile observability on a city: each tile's trace
// ring holds TraceCap events (0 = the obs default) of the Filter
// categories (none = all).
type CityObs struct {
	TraceCap int
	Filter   []string
}

// BuildCity finishes a city-style spec — the city radio profile, o's
// admission stagger, shard workers and chaos profile, observability
// when co is non-nil — and builds the sharded city, not yet advanced.
// The city experiments and spider-sim build every city through it.
func BuildCity(spec scenario.CityGridSpec, cfg core.Config, o Options, co *CityObs) (*shard.City, error) {
	spec.Radio = radio.Defaults()
	spec.Radio.DataRateKbps = 24_000
	spec.JoinSpread, spec.JoinRamp = o.JoinSpread, o.JoinRamp
	city := shard.NewCity(spec, cfg, max(o.Shards, 1))
	if co != nil {
		city.EnableObs(co.TraceCap, co.Filter...)
	}
	if o.Chaos != "" {
		fcfg, ok := fault.Profile(o.Chaos)
		if !ok {
			return nil, fmt.Errorf("unknown chaos profile %q (timeline scripts are single-drive only)", o.Chaos)
		}
		city.ApplyChaos(fcfg)
	}
	return city, nil
}

// cityFigure renders a completed city-style run as the experiment's
// figure (the metro experiment reuses it under its own id).
func cityFigure(id string, city *shard.City, dur time.Duration) Figure {
	var goodput []float64
	var joinMS []float64
	for _, cl := range city.Clients() {
		goodput = append(goodput, cl.Rec.ThroughputKBps(dur))
		for _, j := range cl.Joins {
			if j.Success {
				joinMS = append(joinMS, float64(j.Elapsed)/float64(time.Millisecond))
			}
		}
	}

	return Figure{
		ID:     id,
		Title:  fmt.Sprintf("%s-scale fleet, %s", id, city.Layout),
		XLabel: "percentile across clients (machinery series: metric index)",
		YLabel: "per-series units (KBps / ms / count)",
		Series: []Series{
			quantileSeries("goodput_KBps", goodput),
			quantileSeries("join_latency_ms", joinMS),
			{Name: "shard_machinery", Points: []Point{
				{X: 0, Y: float64(city.Layout.NTiles)},
				{X: 1, Y: float64(city.Migrations)},
				{X: 2, Y: float64(haloInjected(city))},
				{X: 3, Y: float64(city.TotalInjected())},
				{X: 4, Y: float64(city.InvariantsTotal())},
			}},
		},
	}
}

// quantileSeries renders a value set as percentile points (5% steps).
func quantileSeries(name string, vals []float64) Series {
	s := Series{Name: name}
	cdf := metrics.NewCDF(vals)
	if cdf.N() == 0 {
		return s
	}
	for p := 0; p <= 100; p += 5 {
		s.Points = append(s.Points, Point{X: float64(p), Y: cdf.Quantile(float64(p) / 100)})
	}
	return s
}

func haloInjected(c *shard.City) uint64 {
	var t uint64
	for _, tile := range c.Tiles {
		t += tile.World.Medium.Stats().HaloInjected
	}
	return t
}
