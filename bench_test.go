package spider

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each bench regenerates its experiment at a
// reduced scale and reports headline metrics the paper's claims hinge on
// as custom benchmark units, so `go test -bench=. -benchmem` doubles as
// a regression harness for the reproduction's shape:
//
//	BenchmarkTable2  …  4.1 spider-vs-stock-×
//
// Full-scale regeneration (paper-like durations) is cmd/spider-exp.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"spider/internal/expt"
	"spider/internal/shard"
)

// benchOpts is the benchmark scale: small enough to iterate, large
// enough that the reported ratios are stable for the fixed seed.
func benchOpts() expt.Options { return expt.Options{Seed: 1, Scale: 0.12} }

func kbps(cell string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(cell, " KB/s"), 64)
	return v
}

func pct(cell string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	return v
}

func BenchmarkFig2JoinModel(b *testing.B) {
	var match float64
	for i := 0; i < b.N; i++ {
		fig := expt.Fig2(benchOpts())
		mod := fig.SeriesByName("Model (βmax=5s)")
		sim := fig.SeriesByName("Simulation (βmax=5s)")
		var maxDiff float64
		for j := range mod.Points {
			d := mod.Points[j].Y - sim.Points[j].Y
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
		match = maxDiff
	}
	b.ReportMetric(match, "max-model-sim-gap")
}

func BenchmarkFig3BetaMaxSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig3(benchOpts())
	}
}

func BenchmarkFig4DividingSpeed(b *testing.B) {
	var ds float64
	for i := 0; i < b.N; i++ {
		res := expt.Fig4(benchOpts())
		ds = res.DividingSpeeds[1] // the 50/50 scenario
	}
	b.ReportMetric(ds, "dividing-speed-m/s")
}

func BenchmarkFig5AssocVsSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig5(benchOpts())
	}
}

func BenchmarkFig6JoinVsSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig6(benchOpts())
	}
}

func BenchmarkFig7TCPFraction(b *testing.B) {
	var full float64
	for i := 0; i < b.N; i++ {
		fig := expt.Fig7(benchOpts())
		pts := fig.Series[0].Points
		full = pts[len(pts)-1].Y
	}
	b.ReportMetric(full, "full-dwell-kbps")
}

func BenchmarkFig8TCPDwell(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		fig := expt.Fig8(benchOpts())
		pts := fig.Series[0].Points
		peak := 0.0
		for _, p := range pts {
			if p.Y > peak {
				peak = p.Y
			}
		}
		if last := pts[len(pts)-1].Y; last > 0 {
			ratio = peak / last
		}
	}
	b.ReportMetric(ratio, "peak-over-400ms-×")
}

func BenchmarkFig9Microbench(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		fig := expt.Fig9(benchOpts())
		two := fig.SeriesByName("two cards, stock").Points
		sp := fig.SeriesByName("Spider, (100,0,0)").Points
		rel = sp[len(sp)-1].Y / two[len(two)-1].Y
	}
	b.ReportMetric(rel, "spider-vs-two-cards")
}

func BenchmarkFig10ConnectivityCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig10(benchOpts())
	}
}

func BenchmarkFig11JoinVsTimeout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig11(benchOpts())
	}
}

func BenchmarkFig12JoinPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig12(benchOpts())
	}
}

func BenchmarkFig13UserConnections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig13(benchOpts())
	}
}

func BenchmarkFig14UserDisruptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Fig14(benchOpts())
	}
}

func BenchmarkTable1SwitchLatency(b *testing.B) {
	var base float64
	for i := 0; i < b.N; i++ {
		tbl := expt.Table1(benchOpts())
		base, _ = strconv.ParseFloat(tbl.Rows[0][1], 64)
	}
	b.ReportMetric(base, "bare-switch-ms")
}

func BenchmarkTable2Configurations(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		tbl := expt.Table2(benchOpts())
		multi := kbps(tbl.Cell("(1) Channel 1, Multi-AP", "Throughput"))
		single := kbps(tbl.Cell("(2) Channel 1, Single-AP", "Throughput"))
		if single > 0 {
			gain = multi / single
		}
	}
	b.ReportMetric(gain, "multi-vs-single-×")
}

func BenchmarkTable3DHCPFailures(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tbl := expt.Table3(benchOpts())
		def := pct(tbl.Cell("Chan 1, default timer", "Failed dhcp"))
		red := pct(tbl.Cell("Chan 1, ll:100ms, dhcp:200ms", "Failed dhcp"))
		if def > 0 {
			ratio = red / def
		}
	}
	b.ReportMetric(ratio, "reduced-vs-default-fail-×")
}

func BenchmarkTable4ChannelCount(b *testing.B) {
	var connGain float64
	for i := 0; i < b.N; i++ {
		tbl := expt.Table4(benchOpts())
		c1 := pct(tbl.Cell("1 channel", "Connectivity"))
		c3 := pct(tbl.Cell("3 channels (equal schedule)", "Connectivity"))
		if c1 > 0 {
			connGain = c3 / c1
		}
	}
	b.ReportMetric(connGain, "3ch-connectivity-gain-×")
}

func BenchmarkAblationSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationSelection(benchOpts())
	}
}

func BenchmarkAblationCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationCache(benchOpts())
	}
}

func BenchmarkAblationChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationChannel(benchOpts())
	}
}

func BenchmarkAblationDividing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationDividing(benchOpts())
	}
}

func BenchmarkAblationAPCentric(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		tbl := expt.AblationAPCentric(benchOpts())
		// Ratio at the highest backhaul: the design choice at its sharpest.
		last := tbl.Rows[len(tbl.Rows)-1]
		worst, _ = strconv.ParseFloat(last[3], 64)
	}
	b.ReportMetric(worst, "spider-vs-fatvap-×")
}

func BenchmarkAblationEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationEnergy(benchOpts())
	}
}

func BenchmarkAblationInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationInterference(benchOpts())
	}
}

func BenchmarkAblationStopGo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationStopGo(benchOpts())
	}
}

func BenchmarkAblationWeb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationWeb(benchOpts())
	}
}

func BenchmarkAblationExactSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.AblationExactSelection(benchOpts())
	}
}

// BenchmarkSweepWorkers measures how a real experiment scales with the
// sweep engine's worker count. Fig12 fans six independent drive
// simulations out, so on an idle multicore machine the speedup from
// workers=1 to workers=4 should approach 4× (bounded by the six-way
// fan-out and the slowest drive). Output is bit-identical at every
// worker count — compare ns/op across the sub-benchmarks.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := benchOpts()
			o.Workers = w
			for i := 0; i < b.N; i++ {
				expt.Fig12(o)
			}
		})
	}
}

// BenchmarkSweepWorkersTable3 is the same scaling probe on a wider
// fan-out: Table3 flattens (6 rows × replications) into one sweep, so it
// keeps more than six workers busy.
func BenchmarkSweepWorkersTable3(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := benchOpts()
			o.Workers = w
			for i := 0; i < b.N; i++ {
				expt.Table3(o)
			}
		})
	}
}

// BenchmarkCityScaleSharded measures what spatial sharding buys: a 6×6
// km city at the Amherst-like density of ~55 APs/km² — 2000 APs, 200
// driving clients — partitioned into lockstep tiles with the barrier
// exchange (halo beacons + client migration) between them. The tile
// layout is fixed by the scenario — "shards" only sets how many tiles
// advance concurrently — so every shards=N variant simulates
// byte-identical cities (see internal/shard's identity tests); only the
// wall clock differs. The "unsharded" variant runs the same planned city
// (CityGridSpec.Plan) on one plain World — one kernel, one medium — so
// shards=1 against it prices the sharding machinery itself (epoch
// chopping, halo mirroring, barrier scans) on the same sample of the
// city; CI's sharding overhead guard holds it within 5%.
//
// Each variant builds its city once and advances it 2 virtual seconds
// per iteration, with a warm-up outside the timer — so ns/op is
// steady-state simulation rate and allocs/op is the steady-state
// allocation budget (construction and pool warm-up excluded). CI's
// byte budget guard holds shards=1 under a B/op ceiling.
func BenchmarkCityScaleSharded(b *testing.B) {
	const virtual = 2 * time.Second
	const warmup = 4 * time.Second
	cfg := Defaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 1, 6, 11))
	citySpec := func(seed int64) CityGridSpec {
		spec := CityGrid(seed, 2000, 200)
		spec.AreaW, spec.AreaH = 6000, 6000
		rc := DefaultRadio()
		rc.DataRateKbps = 24_000
		spec.Radio = rc
		return spec
	}
	b.Run("unsharded", func(b *testing.B) {
		spec := citySpec(1)
		plan := spec.Plan()
		world := NewWorld(spec.Seed, spec.Radio)
		for _, ap := range plan.APs {
			world.AddAP(ap.Spec())
		}
		for _, cp := range plan.Clients {
			world.AddClientAddr(cp.Addr(), cfg, cp.Mob)
		}
		world.Run(warmup)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			world.Run(warmup + time.Duration(i+1)*virtual)
		}
		b.ReportMetric(virtual.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "sim-s/wall-s")
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			city := shard.NewCity(citySpec(1), cfg, shards)
			if err := city.Run(warmup); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := city.Run(warmup + time.Duration(i+1)*virtual); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(virtual.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "sim-s/wall-s")
		})
	}
}

// BenchmarkJoinStormQuick is the byte budget of the join storm at a size
// CI affords: spider-bench's quick storm fixture (3×3 km, 500 APs, 1,000
// clients, 49 tiles), each iteration a fresh city built outside the
// timer and advanced through its first virtual second, when every
// client scans, associates and DHCPs at once. Run it with -benchmem: CI
// fails when B/op rises above a ceiling set between the per-entity free
// lists and unpooled join frames this path once had and what it
// allocates now.
func BenchmarkJoinStormQuick(b *testing.B) {
	cfg := Defaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 1, 6, 11))
	spec := CityGrid(1, 500, 1000)
	spec.AreaW, spec.AreaH = 3000, 3000
	rc := DefaultRadio()
	rc.DataRateKbps = 24_000
	spec.Radio = rc
	tiles := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		city := shard.NewCity(spec, cfg, 0)
		tiles = city.Layout.NTiles
		b.StartTimer()
		if err := city.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tiles), "tiles")
}

// BenchmarkMetroSteadyState is the alloc regression gate for the pooled
// per-client stack: a small 2-D-tiled district of parked clients on a
// single-channel multi-AP schedule, warmed until every join and pool
// has settled, then advanced one virtual second per iteration. In
// steady state the per-client path — beacons, TCP segments and ACKs,
// DHCP renewals, scan ticks, halo mirrors — runs entirely on recycled
// objects, so allocs/op stays near zero regardless of client count; CI
// fails if it regresses above a small ceiling.
func BenchmarkMetroSteadyState(b *testing.B) {
	const warmup = 30 * time.Second
	const virtual = time.Second
	cfg := Defaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 1))
	spec := CityGrid(1, 300, 500)
	spec.AreaW, spec.AreaH = 2000, 2000
	spec.SpeedMS = 0 // parked: steady state is pure protocol + traffic
	rc := DefaultRadio()
	rc.DataRateKbps = 24_000
	spec.Radio = rc
	city := shard.NewCity(spec, cfg, 0)
	if city.Layout.NTiles < 4 {
		b.Fatalf("fixture expects a 2-D grid, layout %v", city.Layout)
	}
	if err := city.Run(warmup); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := city.Run(warmup + time.Duration(i+1)*virtual); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(virtual.Seconds()*float64(b.N)/b.Elapsed().Seconds(), "sim-s/wall-s")
}
