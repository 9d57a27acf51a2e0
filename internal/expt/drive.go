package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/metrics"
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

// driveClient runs one Amherst (or Boston) drive with the config and
// returns the measured client and the run duration.
func driveClient(o Options, boston bool, cfg core.Config) (*scenario.Client, time.Duration) {
	spec := scenario.AmherstDrive(o.Seed)
	if boston {
		spec = scenario.BostonDrive(o.Seed)
	}
	spec.Radio = driveRadio()
	w, m := spec.Build()
	w.AttachObs(o.Obs)
	c := w.AddClient(cfg, m)
	dur := o.driveDur()
	w.Run(dur)
	return c, dur
}

// Table2 reproduces Table 2: average throughput and connectivity for the
// four Spider configurations plus the Boston single-AP run and the stock
// driver. The expected ordering: single-channel multi-AP wins throughput
// by ~4× over its single-AP counterpart, multi-channel multi-AP wins
// connectivity, and stock trails everything.
func Table2(o Options) Table {
	o = o.withDefaults()
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
		c, dur := driveClient(o, r.boston, cfg)
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
		c, dur := driveClient(o, false, core.SpiderDefaults(mode, r.sched))
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

// Fig10 reproduces Figures 10a–c for the four Spider configurations.
func Fig10(o Options) Fig10Result {
	o = o.withDefaults()
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
		c, dur := driveClient(o, false, spiderConfig(r.cfg))
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
		c, dur := driveClient(o, false, spiderConfig(r.cfg))
		return cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Connections(dur)))
	})...)
	return fig
}

// Fig14 reproduces Figure 14: the users' inter-connection gap CDF
// against Spider's disruption lengths. The claim: multi-channel multi-AP
// Spider's disruptions are comparable to the gaps users already sustain.
func Fig14(o Options) Figure {
	o = o.withDefaults()
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
		c, dur := driveClient(o, false, spiderConfig(r.cfg))
		return cdfSeries(r.label, metrics.DurationsCDF(c.Rec.Disruptions(dur)))
	})...)
	return fig
}
