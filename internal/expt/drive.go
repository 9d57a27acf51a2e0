package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/usertrace"
)

func init() {
	register("table2", func(o Options) (fmt.Stringer, error) { return Table2(o), nil })
	register("table4", func(o Options) (fmt.Stringer, error) { return Table4(o), nil })
	register("fig10", func(o Options) (fmt.Stringer, error) { return Fig10(o), nil })
	register("fig13", func(o Options) (fmt.Stringer, error) { return Fig13(o), nil })
	register("fig14", func(o Options) (fmt.Stringer, error) { return Fig14(o), nil })
}

// DriverConfig returns the named driver configuration: the four Spider
// configurations of §4.1 (Table 2, Fig 10) — "ch1-multi", "ch1-single",
// "3ch-multi", "3ch-single" — or "stock". Multi-channel configurations
// use the paper's static 200 ms schedule on channels 1, 6, 11.
func DriverConfig(name string) (core.Config, error) {
	one := []core.ChannelSlice{{Channel: 1}}
	three := core.EqualSchedule(200*time.Millisecond, 1, 6, 11)
	switch name {
	case "ch1-multi":
		return core.SpiderDefaults(core.SingleChannelMultiAP, one), nil
	case "ch1-single":
		// §4.1 configuration 1 "mimics off-the-shelf Wi-Fi on a single
		// channel": stock timers, no lease cache, no history — pinned to
		// channel 1. This is the baseline the 4× claim compares against.
		return core.StockDefaults(one), nil
	case "3ch-multi":
		return core.SpiderDefaults(core.MultiChannelMultiAP, three), nil
	case "3ch-single":
		return core.SpiderDefaults(core.MultiChannelSingleAP, three), nil
	case "stock":
		// The unmodified MadWiFi baseline roams over the occupied
		// orthogonal channels with stock timers and no optimizations.
		return core.StockDefaults(three), nil
	}
	return core.Config{}, fmt.Errorf("unknown config %q", name)
}

// spiderConfig is DriverConfig for the harness's own fixed names.
func spiderConfig(name string) core.Config {
	cfg, err := DriverConfig(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Drive is one §4.3 vehicular drive: a single client on the Amherst
// (or Boston) loop under the drive radio profile. The drive experiments
// and spider-sim build every drive through it.
type Drive struct {
	Seed    int64
	Boston  bool    // the Boston loop instead of Amherst
	SpeedMS float64 // >0 overrides the loop's vehicle speed
	NumAPs  int     // >0 overrides the deployed AP count
	Config  core.Config
	// Obs, when non-nil, is attached before the client joins, so the
	// driver histograms and the injector's episode spans are wired from
	// the start.
	Obs *obs.Obs
	// Faults, when non-nil, layers a fault injector and invariant
	// checker over the drive (scenario.ApplyChaos); Timeline schedules
	// scripted faults on top and starts the checker's liveness watch.
	Faults   *fault.Config
	Timeline fault.Timeline
}

// Spec is the drive's scenario with its overrides applied. The radio is
// the outdoor drive profile: paper geometry, 802.11g-class data rate
// (the testbed's), and an early loss ramp — vehicular links degrade
// well inside the nominal range, so the usable core of an encounter
// matches the paper's ~8 s median.
func (d Drive) Spec() scenario.DriveSpec {
	spec := scenario.AmherstDrive(d.Seed)
	if d.Boston {
		spec = scenario.BostonDrive(d.Seed)
	}
	spec.Radio = radio.Defaults()
	spec.Radio.DataRateKbps = 24_000
	spec.Radio.Loss = 0.08
	spec.Radio.EdgeStart = 0.55
	if d.SpeedMS > 0 {
		spec.SpeedMS = d.SpeedMS
	}
	if d.NumAPs > 0 {
		spec.NumAPs = d.NumAPs
	}
	return spec
}

// DriveRun is a built drive, not yet advanced.
type DriveRun struct {
	World  *scenario.World
	Client *scenario.Client
	Chaos  *scenario.Chaos // nil unless Drive.Faults is set
}

// Build creates the world, joins the client and applies the faults.
func (d Drive) Build() DriveRun {
	w, mob := d.Spec().Build()
	w.AttachObs(d.Obs)
	r := DriveRun{World: w, Client: w.AddClient(d.Config, mob)}
	if d.Faults != nil {
		r.Chaos = scenario.ApplyChaos(w, r.Client, *d.Faults)
		if len(d.Timeline) > 0 {
			r.Chaos.Injector.ScheduleTimeline(d.Timeline)
			r.Chaos.Checker.StartLiveness(5 * time.Second)
		}
	}
	return r
}

// Run advances the drive to dur and returns its client.
func (r DriveRun) Run(dur time.Duration) *scenario.Client {
	r.World.Run(dur)
	return r.Client
}

// Table2 reproduces Table 2: average throughput and connectivity for the
// four Spider configurations plus the Boston single-AP run and the stock
// driver. The expected ordering: single-channel multi-AP wins throughput
// by ~4× over its single-AP counterpart, multi-channel multi-AP wins
// connectivity, and stock trails everything.
func Table2(o Options) Table {
	o = o.withDefaults()
	dur := o.driveDur()
	tbl := Table{
		ID:      "table2",
		Title:   "Avg. throughput and connectivity for Spider configurations",
		Columns: []string{"(Config) Parameters", "Throughput", "Connectivity"},
	}
	rows := []struct {
		label  string
		cfg    string
		boston bool
	}{
		{"(1) Channel 1, Multi-AP", "ch1-multi", false},
		{"(2) Channel 1, Single-AP", "ch1-single", false},
		{"(3) 3 channels, Multi-AP", "3ch-multi", false},
		{"(4) 3 channels, Single-AP", "3ch-single", false},
		{"(2) Channel 6, single-AP (Boston)", "ch6-single-boston", true},
		{"MadWiFi driver", "stock", false},
	}
	tbl.Rows = fanOut(o, len(rows), func(i int) []string {
		r := rows[i]
		var cfg core.Config
		if r.cfg == "ch6-single-boston" {
			cfg = core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
		} else {
			cfg = spiderConfig(r.cfg)
		}
		c := Drive{Seed: o.Seed, Boston: r.boston, Config: cfg, Obs: o.Obs}.Build().Run(dur)
		return []string{
			r.label,
			metrics.FormatKBps(c.Rec.ThroughputKBps(dur)),
			metrics.FormatPct(c.Rec.Connectivity(dur)),
		}
	})
	return tbl
}

// Table4 reproduces Table 4: throughput and connectivity as the number
// of equally scheduled channels varies (multi-AP throughout). Expected
// shape: one channel maximizes throughput, three maximize connectivity.
func Table4(o Options) Table {
	o = o.withDefaults()
	dur := o.driveDur()
	tbl := Table{
		ID:      "table4",
		Title:   "Throughput and connectivity vs number of channels (multi-AP)",
		Columns: []string{"Parameters", "Throughput", "Connectivity"},
	}
	rows := []struct {
		label string
		sched []core.ChannelSlice
	}{
		{"1 channel", []core.ChannelSlice{{Channel: 1}}},
		{"2 channels (equal schedule)", core.EqualSchedule(200*time.Millisecond, 1, 6)},
		{"3 channels (equal schedule)", core.EqualSchedule(200*time.Millisecond, 1, 6, 11)},
	}
	tbl.Rows = fanOut(o, len(rows), func(i int) []string {
		r := rows[i]
		mode := core.MultiChannelMultiAP
		if len(r.sched) == 1 {
			mode = core.SingleChannelMultiAP
		}
		c := Drive{Seed: o.Seed, Config: core.SpiderDefaults(mode, r.sched), Obs: o.Obs}.Build().Run(dur)
		return []string{
			r.label,
			metrics.FormatKBps(c.Rec.ThroughputKBps(dur)),
			metrics.FormatPct(c.Rec.Connectivity(dur)),
		}
	})
	return tbl
}

// Fig10Result bundles the three CDF panels of Figure 10.
type Fig10Result struct {
	Connections Figure // 10a: connection duration CDFs
	Disruptions Figure // 10b: disruption duration CDFs
	Bandwidth   Figure // 10c: instantaneous bandwidth CDFs
}

// String renders all three panels.
func (r Fig10Result) String() string {
	return r.Connections.String() + r.Disruptions.String() + r.Bandwidth.String()
}

// Figures returns panels a, b and c.
func (r Fig10Result) Figures() []Figure { return []Figure{r.Connections, r.Disruptions, r.Bandwidth} }

// Fig10 reproduces Figures 10a–c for the four Spider configurations.
func Fig10(o Options) Fig10Result {
	o = o.withDefaults()
	dur := o.driveDur()
	res := Fig10Result{
		Connections: Figure{ID: "fig10a", Title: "CDF of connection duration",
			XLabel: "connection duration (s)", YLabel: "cumulative fraction"},
		Disruptions: Figure{ID: "fig10b", Title: "CDF of connectivity disruptions",
			XLabel: "disruption duration (s)", YLabel: "cumulative fraction"},
		Bandwidth: Figure{ID: "fig10c", Title: "CDF of instantaneous bandwidth",
			XLabel: "bandwidth (KBps)", YLabel: "cumulative fraction"},
	}
	rows := []struct{ label, cfg string }{
		{"single AP (ch1)", "ch1-single"},
		{"multiple APs (ch1)", "ch1-multi"},
		{"single AP (multi-channel)", "3ch-single"},
		{"multiple APs (multi-channel)", "3ch-multi"},
	}
	type panels struct{ conn, gap, bw Series }
	got := fanOut(o, len(rows), func(i int) panels {
		r := rows[i]
		c := Drive{Seed: o.Seed, Config: spiderConfig(r.cfg), Obs: o.Obs}.Build().Run(dur)
		return panels{
			conn: cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Connections(dur))),
			gap:  cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Disruptions(dur))),
			bw:   cdfSeries(r.label, metrics.NewCDF(c.Rec.InstantaneousKBps(dur))),
		}
	})
	for _, p := range got {
		res.Connections.Series = append(res.Connections.Series, p.conn)
		res.Disruptions.Series = append(res.Disruptions.Series, p.gap)
		res.Bandwidth.Series = append(res.Bandwidth.Series, p.bw)
	}
	return res
}

func cdfSeries(name string, c metrics.CDF) Series {
	s := Series{Name: name}
	for _, p := range c.Points(20) {
		s.Points = append(s.Points, Point{X: p.X, Y: p.P})
	}
	return s
}

// Fig13 reproduces Figure 13: the mesh users' TCP connection-duration
// CDF against the connection durations Spider sustains in its
// single-channel and multi-channel multi-AP modes. The claim: Spider's
// connections are long enough to carry the users' flows.
func Fig13(o Options) Figure {
	o = o.withDefaults()
	dur := o.driveDur()
	fig := Figure{
		ID:     "fig13",
		Title:  "Connection lengths: wireless users vs Spider",
		XLabel: "connection duration (s)",
		YLabel: "cumulative fraction of connections",
	}
	tr := usertrace.Generate(usertrace.DefaultSpec(o.Seed))
	fig.Series = append(fig.Series, cdfSeries("users connection duration",
		metrics.DurationsCDF(tr.Durations())))
	rows := []struct{ label, cfg string }{
		{"multiple APs (ch1)", "ch1-multi"},
		{"multiple APs (multi-channel)", "3ch-multi"},
	}
	fig.Series = append(fig.Series, fanOut(o, len(rows), func(i int) Series {
		r := rows[i]
		c := Drive{Seed: o.Seed, Config: spiderConfig(r.cfg), Obs: o.Obs}.Build().Run(dur)
		return cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Connections(dur)))
	})...)
	return fig
}

// Fig14 reproduces Figure 14: the users' inter-connection gap CDF
// against Spider's disruption lengths. The claim: multi-channel multi-AP
// Spider's disruptions are comparable to the gaps users already sustain.
func Fig14(o Options) Figure {
	o = o.withDefaults()
	dur := o.driveDur()
	fig := Figure{
		ID:     "fig14",
		Title:  "Disruption lengths: wireless users vs Spider",
		XLabel: "disruption length (s)",
		YLabel: "cumulative fraction of disruptions",
	}
	tr := usertrace.Generate(usertrace.DefaultSpec(o.Seed))
	fig.Series = append(fig.Series, cdfSeries("user inter-connection",
		metrics.DurationsCDF(tr.InterConnectionGaps())))
	rows := []struct{ label, cfg string }{
		{"multiple APs (ch1)", "ch1-multi"},
		{"multiple APs (multi-channel)", "3ch-multi"},
	}
	fig.Series = append(fig.Series, fanOut(o, len(rows), func(i int) Series {
		r := rows[i]
		c := Drive{Seed: o.Seed, Config: spiderConfig(r.cfg), Obs: o.Obs}.Build().Run(dur)
		return cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Disruptions(dur)))
	})...)
	return fig
}
