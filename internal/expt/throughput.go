package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/metrics"
	"spider/internal/scenario"
	"spider/internal/sim"
)

func init() {
	register("fig7", func(o Options) (fmt.Stringer, error) { return Fig7(o), nil })
	register("fig8", func(o Options) (fmt.Stringer, error) { return Fig8(o), nil })
	register("fig9", func(o Options) (fmt.Stringer, error) { return Fig9(o), nil })
	register("table1", func(o Options) (fmt.Stringer, error) { return Table1(o), nil })
}

// indoorRun measures TCP throughput (kbps) for a stationary client with
// the given schedule against one AP on the primary channel.
func indoorRun(seed int64, sched []core.ChannelSlice, dur time.Duration) float64 {
	w := scenario.Indoor(seed, 1, 6000)
	mode := core.MultiChannelMultiAP
	if len(sched) == 1 {
		mode = core.SingleChannelMultiAP
	}
	cfg := core.SpiderDefaults(mode, sched)
	c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
	// Let the join settle, then measure steady state.
	warm := 10 * time.Second
	w.Run(warm)
	startBytes := c.Rec.TotalBytes()
	w.Run(warm + dur)
	return float64(c.Rec.TotalBytes()-startBytes) * 8 / 1000 / dur.Seconds()
}

// Fig7 reproduces Figure 7: average TCP throughput as a function of the
// percentage of the 400 ms schedule spent on the primary channel. With
// the whole period under two RTTs, throughput is proportional to the
// fraction (PSM buffering absorbs the absences without timeouts).
func Fig7(o Options) Figure {
	o = o.withDefaults()
	dur := o.scaleDur(60*time.Second, 15*time.Second)
	D := 400 * time.Millisecond
	fig := Figure{
		ID:     "fig7",
		Title:  "TCP throughput vs % of time on primary channel",
		XLabel: "% of time on primary channel",
		YLabel: "average throughput (kb/s)",
	}
	s := Series{Name: "throughput"}
	s.Points = fanOut(o, 10, func(i int) Point {
		pct := 10 * (i + 1)
		kbps := indoorRun(o.Seed, primarySchedule(1, float64(pct)/100, D), dur)
		return Point{X: float64(pct), Y: kbps}
	})
	fig.Series = []Series{s}
	return fig
}

// Fig8 reproduces Figure 8: average TCP throughput as a function of the
// absolute time spent on each of three equally scheduled channels. For
// dwell x the radio is away 2x; once the absence approaches the RTO the
// flow collapses into timeouts and slow-start restarts, so the curve is
// non-monotone.
func Fig8(o Options) Figure {
	o = o.withDefaults()
	dur := o.scaleDur(60*time.Second, 15*time.Second)
	fig := Figure{
		ID:     "fig8",
		Title:  "TCP throughput vs absolute per-channel dwell",
		XLabel: "time spent on each channel (ms)",
		YLabel: "average throughput (kb/s)",
	}
	dwells := []int{25, 50, 100, 150, 200, 250, 300, 400}
	s := Series{Name: "throughput"}
	s.Points = fanOut(o, len(dwells), func(i int) Point {
		ms := dwells[i]
		sched := core.EqualSchedule(time.Duration(ms)*time.Millisecond, 1, 6, 11)
		kbps := indoorRun(o.Seed, sched, dur)
		return Point{X: float64(ms), Y: kbps}
	})
	fig.Series = []Series{s}
	return fig
}

// fig9Run measures aggregate throughput (KBps) for one Fig 9
// configuration at one backhaul rate.
func fig9Run(seed int64, backhaulKbps int, dur time.Duration, build func(w *scenario.World) []*scenario.Client) float64 {
	w := scenario.StaticLab(seed, backhaulKbps) // APs added by build
	clients := build(w)
	warm := 15 * time.Second
	w.Run(warm)
	start := int64(0)
	for _, c := range clients {
		start += c.Rec.TotalBytes()
	}
	w.Run(warm + dur)
	var total int64
	for _, c := range clients {
		total += c.Rec.TotalBytes()
	}
	return float64(total-start) / 1000 / dur.Seconds()
}

// labAP adds one Fig 9 AP on the channel with the shaped backhaul.
func labAP(w *scenario.World, ch, kbps int, x float64) {
	w.AddAP(scenario.APSpec{
		Pos: geo.Point{X: x}, Channel: ch, BackhaulKbps: kbps,
		BackhaulLat:  10 * time.Millisecond,
		OfferLatency: constMS(30), AckLatency: constMS(15),
	})
}

// Fig9 reproduces Figure 9: aggregate HTTP download throughput versus
// per-AP backhaul bandwidth for five configurations. The headline:
// Spider joined to two APs on one channel matches a host with two
// physical cards, because same-channel concurrency has no switching
// overhead and no TCP-timeout risk.
func Fig9(o Options) Figure {
	o = o.withDefaults()
	dur := o.scaleDur(60*time.Second, 15*time.Second)
	fig := Figure{
		ID:     "fig9",
		Title:  "Throughput micro-benchmark vs backhaul bandwidth per AP",
		XLabel: "backhaul bandwidth per AP (Mbps)",
		YLabel: "average throughput (KBps)",
	}
	rates := []int{500, 1000, 2000, 3000, 4000, 5000}
	single := func(kbps int) float64 {
		return fig9Run(o.Seed, kbps, dur, func(w *scenario.World) []*scenario.Client {
			labAP(w, 1, kbps, 10)
			c := w.AddClient(core.StockDefaults([]core.ChannelSlice{{Channel: 1}}), geo.Static{P: geo.Point{}})
			return []*scenario.Client{c}
		})
	}
	twoCards := func(kbps int) float64 {
		return fig9Run(o.Seed, kbps, dur, func(w *scenario.World) []*scenario.Client {
			labAP(w, 1, kbps, 10)
			labAP(w, 11, kbps, 15)
			c1 := w.AddClient(core.StockDefaults([]core.ChannelSlice{{Channel: 1}}), geo.Static{P: geo.Point{}})
			c2 := w.AddClient(core.StockDefaults([]core.ChannelSlice{{Channel: 11}}), geo.Static{P: geo.Point{}})
			return []*scenario.Client{c1, c2}
		})
	}
	spider := func(kbps int, sched []core.ChannelSlice, sameChannel bool) float64 {
		return fig9Run(o.Seed, kbps, dur, func(w *scenario.World) []*scenario.Client {
			if sameChannel {
				labAP(w, 1, kbps, 10)
				labAP(w, 1, kbps, 15)
			} else {
				labAP(w, 1, kbps, 10)
				labAP(w, 11, kbps, 15)
			}
			mode := core.MultiChannelMultiAP
			if len(sched) == 1 {
				mode = core.SingleChannelMultiAP
			}
			c := w.AddClient(core.SpiderDefaults(mode, sched), geo.Static{P: geo.Point{}})
			return []*scenario.Client{c}
		})
	}
	configs := []struct {
		name string
		f    func(int) float64
	}{
		{"one card, stock", single},
		{"two cards, stock", twoCards},
		{"Spider, (100,0,0)", func(k int) float64 {
			return spider(k, []core.ChannelSlice{{Channel: 1}}, true)
		}},
		{"Spider, (50,0,50)", func(k int) float64 {
			return spider(k, core.EqualSchedule(50*time.Millisecond, 1, 11), false)
		}},
		{"Spider, (100,0,100)", func(k int) float64 {
			return spider(k, core.EqualSchedule(100*time.Millisecond, 1, 11), false)
		}},
	}
	// Flatten the (configuration × backhaul rate) grid into one sweep.
	flat := fanOut(o, len(configs)*len(rates), func(idx int) Point {
		cfg := configs[idx/len(rates)]
		r := rates[idx%len(rates)]
		return Point{X: float64(r) / 1000, Y: cfg.f(r)}
	})
	for ci, cfg := range configs {
		fig.Series = append(fig.Series, Series{
			Name:   cfg.name,
			Points: flat[ci*len(rates) : (ci+1)*len(rates)],
		})
	}
	return fig
}

// Table1 reproduces Table 1: channel-switch latency versus the number of
// connected interfaces. The latency is the PSM announcement to each
// associated AP on the old channel, the hardware reset, and the wake
// poll to each associated AP on the new channel.
func Table1(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "table1",
		Title:   "Channel switching latency (ms) of the Spider driver",
		Columns: []string{"Num. of connected interfaces", "Mean", "Std Dev"},
	}
	switches := o.scaleN(60, 10)
	tbl.Rows = fanOut(o, 5, func(n int) []string {
		w := scenario.StaticLab(o.Seed+int64(n), 4000)
		for i := 0; i < n; i++ {
			labAP(w, 6, 4000, float64(10+5*i))
		}
		cfg := core.SpiderDefaults(core.SingleChannelMultiAP, []core.ChannelSlice{{Channel: 6}})
		var lats []float64
		c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
		w.Run(30 * time.Second)
		if c.Driver.ConnectedCount() != n {
			// Join failure would silently corrupt the row; surface it.
			return []string{fmt.Sprint(n), "join-failed", "-"}
		}
		// Alternate between the home channel and an empty one; only
		// measure switches *away* (they carry the PSM announcements).
		switchTo := func(ch int) {
			if lat, nconn, ok := c.Driver.ForceSwitch(ch); ok && nconn == n {
				lats = append(lats, float64(lat.Microseconds())/1000)
			}
			w.Run(w.Kernel.Now() + 500*time.Millisecond)
		}
		for i := 0; i < switches; i++ {
			switchTo(11)
			switchTo(6)
		}
		return []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.3f", metrics.Mean(lats)),
			fmt.Sprintf("%.3f", metrics.StdDev(lats)),
		}
	})
	return tbl
}

func constMS(ms int) sim.Dist { return sim.Constant{V: time.Duration(ms) * time.Millisecond} }
