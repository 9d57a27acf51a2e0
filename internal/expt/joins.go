package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/dhcp"
	"spider/internal/mac"
	"spider/internal/metrics"
)

func init() {
	register("fig5", func(o Options) (fmt.Stringer, error) { return Fig5(o), nil })
	register("fig6", func(o Options) (fmt.Stringer, error) { return Fig6(o), nil })
	register("fig11", func(o Options) (fmt.Stringer, error) { return Fig11(o), nil })
	register("fig12", func(o Options) (fmt.Stringer, error) { return Fig12(o), nil })
	register("table3", func(o Options) (fmt.Stringer, error) { return Table3(o), nil })
}

// driveDur is the per-configuration drive length at scale 1. The paper
// drove six-hour experiments; the simulated loop produces encounters at
// a much higher duty cycle, so 40 minutes yields hundreds of trials.
func (o Options) driveDur() time.Duration {
	return o.scaleDur(40*time.Minute, 4*time.Minute)
}

// Fig5 reproduces Figure 5: the rate of successful link-layer
// associations on channel 6 as a function of the fraction of the 400 ms
// schedule spent there (25/50/75/100%), with 100 ms link-layer timers.
func Fig5(o Options) Figure {
	o = o.withDefaults()
	D := 400 * time.Millisecond
	fig := Figure{
		ID:     "fig5",
		Title:  "Successful link-layer associations vs time on channel",
		XLabel: "time to associate (s)",
		YLabel: "fraction of successful associations",
	}
	xs := secondsGrid(50*time.Millisecond, 2*time.Second)
	fracs := []float64{0.25, 0.50, 0.75, 1.00}
	fig.Series = fanOut(o, len(fracs), func(i int) Series {
		f := fracs[i]
		cfg := joinCfg(primarySchedule(6, f, D), mac.ReducedJoinConfig(),
			dhcp.ReducedClientConfig(100*time.Millisecond))
		r := Drive{Seed: o.Seed, Config: cfg}.Build()
		succ, total := assocOn(r.Run(o.driveDur()), channelOf(r.World), 6)
		return Series{Name: fmt.Sprintf("%d%%", int(f*100)), Points: failureAwareCDF(succ, total, xs)}
	})
	return fig
}

// Fig6 reproduces Figure 6: the rate of successful lease acquisition
// (association + DHCP) as a function of the fraction of time on the
// channel and the DHCP timeout (100 ms reduced vs the 1 s default).
func Fig6(o Options) Figure {
	o = o.withDefaults()
	D := 400 * time.Millisecond
	fig := Figure{
		ID:     "fig6",
		Title:  "Successful DHCP lease acquisition vs time on channel",
		XLabel: "time to lease (s)",
		YLabel: "fraction of successful leases",
	}
	xs := secondsGrid(250*time.Millisecond, 15*time.Second)
	type row struct {
		name string
		f    float64
		dhc  dhcp.ClientConfig
	}
	rows := []row{
		{"25% - 100ms", 0.25, dhcp.ReducedClientConfig(100 * time.Millisecond)},
		{"50% - 100ms", 0.50, dhcp.ReducedClientConfig(100 * time.Millisecond)},
		{"100% - 100ms", 1.00, dhcp.ReducedClientConfig(100 * time.Millisecond)},
		{"100% - default", 1.00, dhcp.DefaultClientConfig()},
	}
	fig.Series = fanOut(o, len(rows), func(i int) Series {
		r := rows[i]
		cfg := joinCfg(primarySchedule(6, r.f, D), mac.ReducedJoinConfig(), r.dhc)
		run := Drive{Seed: o.Seed, Config: cfg}.Build()
		c := run.Run(o.driveDur())
		chans := channelOf(run.World)
		var succ []time.Duration
		total := 0
		for _, e := range c.Joins {
			if chans[e.BSSID] != 6 {
				continue
			}
			total++
			if e.Success {
				succ = append(succ, e.Elapsed)
			}
		}
		return Series{Name: r.name, Points: failureAwareCDF(succ, total, xs)}
	})
	return fig
}

// Fig11 reproduces Figure 11: CDF of time to join (association + DHCP)
// as a function of the DHCP timeout, on one channel and on three.
func Fig11(o Options) Figure {
	o = o.withDefaults()
	fig := Figure{
		ID:     "fig11",
		Title:  "Rate of successful joins vs DHCP timeout",
		XLabel: "time to join (association+dhcp) (s)",
		YLabel: "cum. frac. of join attempts",
	}
	xs := secondsGrid(500*time.Millisecond, 15*time.Second)
	one := []core.ChannelSlice{{Channel: 1}}
	three := core.EqualSchedule(200*time.Millisecond, 1, 6, 11)
	type row struct {
		name  string
		sched []core.ChannelSlice
		dhc   dhcp.ClientConfig
	}
	rows := []row{
		{"200ms, channel 1", one, dhcp.ReducedClientConfig(200 * time.Millisecond)},
		{"400ms, channel 1", one, dhcp.ReducedClientConfig(400 * time.Millisecond)},
		{"600ms, channel 1", one, dhcp.ReducedClientConfig(600 * time.Millisecond)},
		{"default, channel 1", one, dhcp.DefaultClientConfig()},
		{"default, 3 channels", three, dhcp.DefaultClientConfig()},
		{"200ms, 3 channels", three, dhcp.ReducedClientConfig(200 * time.Millisecond)},
	}
	fig.Series = fanOut(o, len(rows), func(i int) Series {
		r := rows[i]
		cfg := joinCfg(r.sched, mac.ReducedJoinConfig(), r.dhc)
		c := Drive{Seed: o.Seed, Config: cfg}.Build().Run(o.driveDur())
		succ, total := joinsAll(c)
		return Series{Name: r.name, Points: failureAwareCDF(succ, total, xs)}
	})
	return fig
}

// Fig12 reproduces Figure 12: join delay CDFs for six scheduling
// policies (1 vs 7 interfaces, 1/2/3 channels, default vs reduced
// timers).
func Fig12(o Options) Figure {
	o = o.withDefaults()
	fig := Figure{
		ID:     "fig12",
		Title:  "Join delay for different scheduling policies",
		XLabel: "time to join (association+dhcp) (s)",
		YLabel: "fraction of join attempts",
	}
	xs := secondsGrid(500*time.Millisecond, 15*time.Second)
	one := []core.ChannelSlice{{Channel: 1}}
	half := core.EqualSchedule(200*time.Millisecond, 1, 6)
	three := core.EqualSchedule(200*time.Millisecond, 1, 6, 11)
	type row struct {
		name   string
		sched  []core.ChannelSlice
		ifaces int
		link   mac.JoinConfig
		dhc    dhcp.ClientConfig
	}
	rows := []row{
		{"1 iface, ch1(100%), def. TO", one, 1, mac.DefaultJoinConfig(), dhcp.DefaultClientConfig()},
		{"7 ifaces, ch1(100%), def. TO", one, 7, mac.DefaultJoinConfig(), dhcp.DefaultClientConfig()},
		{"7 ifaces, ch1(100%), dhcp=200ms ll=100ms", one, 7, mac.ReducedJoinConfig(), dhcp.ReducedClientConfig(200 * time.Millisecond)},
		{"7 ifaces, ch1(50%) ch6(50%), def. TO", half, 7, mac.DefaultJoinConfig(), dhcp.DefaultClientConfig()},
		{"7 ifaces, 3 chns eq., def. TO", three, 7, mac.DefaultJoinConfig(), dhcp.DefaultClientConfig()},
		{"7 ifaces, 3 chns eq., dhcp=200ms ll=100ms", three, 7, mac.ReducedJoinConfig(), dhcp.ReducedClientConfig(200 * time.Millisecond)},
	}
	fig.Series = fanOut(o, len(rows), func(i int) Series {
		r := rows[i]
		cfg := joinCfg(r.sched, r.link, r.dhc)
		cfg.MaxInterfaces = r.ifaces
		if r.ifaces == 1 {
			if len(r.sched) == 1 {
				cfg.Mode = core.SingleChannelSingleAP
			} else {
				cfg.Mode = core.MultiChannelMultiAP // static rotation, 1 iface cap
				cfg.MaxInterfaces = 1
			}
		}
		c := Drive{Seed: o.Seed, Config: cfg}.Build().Run(o.driveDur())
		succ, total := joinsAll(c)
		return Series{Name: r.name, Points: failureAwareCDF(succ, total, xs)}
	})
	return fig
}

// Table3 reproduces Table 3: DHCP failure probability for six timeout
// configurations, mean ± stddev over several drive seeds.
func Table3(o Options) Table {
	o = o.withDefaults()
	seeds := o.scaleN(4, 2)
	one := []core.ChannelSlice{{Channel: 1}}
	three := core.EqualSchedule(200*time.Millisecond, 1, 6, 11)
	type row struct {
		name  string
		sched []core.ChannelSlice
		link  mac.JoinConfig
		dhc   dhcp.ClientConfig
	}
	rows := []row{
		{"Chan 1, ll:100ms, dhcp:600ms", one, mac.ReducedJoinConfig(), dhcp.ReducedClientConfig(600 * time.Millisecond)},
		{"Chan 1, ll:100ms, dhcp:400ms", one, mac.ReducedJoinConfig(), dhcp.ReducedClientConfig(400 * time.Millisecond)},
		{"Chan 1, ll:100ms, dhcp:200ms", one, mac.ReducedJoinConfig(), dhcp.ReducedClientConfig(200 * time.Millisecond)},
		{"3 Chans, ll:100ms, dhcp:200ms", three, mac.ReducedJoinConfig(), dhcp.ReducedClientConfig(200 * time.Millisecond)},
		{"Chan 1, default timer", one, mac.DefaultJoinConfig(), dhcp.DefaultClientConfig()},
		{"3 Chans, default timer", three, mac.DefaultJoinConfig(), dhcp.DefaultClientConfig()},
	}
	tbl := Table{
		ID:      "table3",
		Title:   "DHCP failure probabilities (7 interfaces)",
		Columns: []string{"Parameters", "Failed dhcp", "±"},
	}
	// One task per (row, replication) pair; replication s drives the same
	// world seed for every row, preserving the paired comparison across
	// timeout configurations.
	type sample struct {
		rate float64
		ok   bool
	}
	flat := fanOut(o, len(rows)*seeds, func(idx int) sample {
		r := rows[idx/seeds]
		s := idx % seeds
		cfg := joinCfg(r.sched, r.link, r.dhc)
		c := Drive{Seed: o.Seed + int64(100*s), Config: cfg}.Build().Run(o.driveDur() / 2)
		fails, total := 0, 0
		for _, j := range c.Joins {
			total++
			if !j.Success {
				fails++
			}
		}
		if total == 0 {
			return sample{}
		}
		return sample{rate: float64(fails) / float64(total), ok: true}
	})
	for ri, r := range rows {
		var rates []float64
		for s := 0; s < seeds; s++ {
			if smp := flat[ri*seeds+s]; smp.ok {
				rates = append(rates, smp.rate)
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			r.name,
			metrics.FormatPct(metrics.Mean(rates)),
			metrics.FormatPct(metrics.StdDev(rates)),
		})
	}
	return tbl
}
