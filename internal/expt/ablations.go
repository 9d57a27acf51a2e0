package expt

import (
	"fmt"
	"time"

	"spider/internal/core"
	"spider/internal/metrics"
	"spider/internal/wifi"
)

func init() {
	register("ablation-selection", func(o Options) (fmt.Stringer, error) { return AblationSelection(o), nil })
	register("ablation-cache", func(o Options) (fmt.Stringer, error) { return AblationCache(o), nil })
	register("ablation-channel", func(o Options) (fmt.Stringer, error) { return AblationChannel(o), nil })
}

// AblationSelection isolates the join-history AP selection heuristic:
// the same interface-constrained drive with history-driven ranking
// versus stock recency ranking. The heuristic matters exactly when the
// interface budget binds — it spends scarce join slots on APs that have
// joined quickly and reliably before.
func AblationSelection(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "ablation-selection",
		Title:   "AP selection: join-history heuristic vs recency (1 interface, dense ch1)",
		Columns: []string{"Selection", "Throughput", "Connectivity", "Join success"},
	}
	run := func(useHistory bool) []string {
		// Densify the deployment: the heuristic only matters when several
		// candidate APs contest the interface budget at once.
		cfg := core.SpiderDefaults(core.SingleChannelMultiAP, []core.ChannelSlice{{Channel: 1}})
		cfg.MaxInterfaces = 1
		cfg.UseHistory = useHistory
		dur := o.driveDur()
		c := Drive{Seed: o.Seed, NumAPs: 80, Config: cfg}.Build().Run(dur)
		name := "recency (stock)"
		if useHistory {
			name = "join-history (Spider)"
		}
		st := c.Driver.Stats()
		succ := "n/a"
		if st.DHCPAttempts > 0 {
			succ = metrics.FormatPct(float64(st.JoinSuccesses) / float64(st.DHCPAttempts))
		}
		return []string{name,
			metrics.FormatKBps(c.Rec.ThroughputKBps(dur)),
			metrics.FormatPct(c.Rec.Connectivity(dur)),
			succ}
	}
	tbl.Rows = fanOut(o, 2, func(i int) []string { return run(i == 0) })
	return tbl
}

// AblationCache isolates DHCP lease caching on a repeated loop: with the
// cache, a rejoin is a REQUEST-first two-message exchange; without it,
// every lap pays the full four-message handshake against the same APs.
func AblationCache(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "ablation-cache",
		Title:   "DHCP lease caching on a repeated loop (ch1, multi-AP)",
		Columns: []string{"Cache", "Throughput", "Median join", "Fast-path joins"},
	}
	run := func(useCache bool) []string {
		cfg := core.SpiderDefaults(core.SingleChannelMultiAP, []core.ChannelSlice{{Channel: 1}})
		cfg.UseLeaseCache = useCache
		// The cache only matters on REPEAT encounters: floor the run at
		// two-plus laps of the loop regardless of scale.
		dur := o.scaleDur(40*time.Minute, 14*time.Minute)
		c := Drive{Seed: o.Seed, Config: cfg}.Build().Run(dur)
		name := "off"
		if useCache {
			name = "on"
		}
		succ, _ := joinsAll(c)
		med := time.Duration(0)
		if len(succ) > 0 {
			med = time.Duration(metrics.DurationsCDF(succ).Median() * float64(time.Second))
		}
		return []string{name,
			metrics.FormatKBps(c.Rec.ThroughputKBps(dur)),
			med.Round(time.Millisecond).String(),
			fmt.Sprint(c.Driver.Stats().FastPathJoins)}
	}
	tbl.Rows = fanOut(o, 2, func(i int) []string { return run(i == 0) })
	return tbl
}

// AblationChannel explores the §4.8 future-work item: dynamically
// choosing the dwell channel. The dynamic policy surveys each orthogonal
// channel briefly and then camps on the one with the most distinct APs
// heard, compared against each fixed single-channel choice.
func AblationChannel(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "ablation-channel",
		Title:   "Single-channel selection policy (multi-AP)",
		Columns: []string{"Policy", "Throughput", "Connectivity"},
	}
	dur := o.driveDur()
	runFixed := func(ch int) (float64, float64) {
		cfg := core.SpiderDefaults(core.SingleChannelMultiAP, []core.ChannelSlice{{Channel: ch}})
		c := Drive{Seed: o.Seed, Config: cfg}.Build().Run(dur)
		return c.Rec.ThroughputKBps(dur), c.Rec.Connectivity(dur)
	}
	// The fixed-channel drives and the channel survey are mutually
	// independent; the committed dynamic run below depends on the survey.
	nfixed := len(wifi.OrthogonalChannels)
	type step struct {
		row  []string
		best int
	}
	steps := fanOut(o, nfixed+1, func(i int) step {
		if i < nfixed {
			ch := wifi.OrthogonalChannels[i]
			tput, conn := runFixed(ch)
			return step{row: []string{
				fmt.Sprintf("fixed channel %d", ch),
				metrics.FormatKBps(tput), metrics.FormatPct(conn)}}
		}
		// Dynamic policy, phase one: survey 3 s per channel.
		surveyCfg := core.SpiderDefaults(core.MultiChannelMultiAP, core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
		surveyCfg.MaxInterfaces = 1 // survey only; no point joining yet
		c := Drive{Seed: o.Seed, Config: surveyCfg}.Build().Run(9 * time.Second)
		counts := map[int]int{}
		for _, r := range c.Driver.KnownAPs() {
			counts[r.Channel]++
		}
		best, bestN := wifi.OrthogonalChannels[0], -1
		for _, ch := range wifi.OrthogonalChannels {
			if counts[ch] > bestN {
				best, bestN = ch, counts[ch]
			}
		}
		return step{best: best}
	})
	for _, s := range steps[:nfixed] {
		tbl.Rows = append(tbl.Rows, s.row)
	}
	best := steps[nfixed].best
	// Fresh world, committed to the surveyed winner.
	cfg := core.SpiderDefaults(core.SingleChannelMultiAP, []core.ChannelSlice{{Channel: best}})
	c2 := Drive{Seed: o.Seed, Config: cfg}.Build().Run(dur)
	tbl.Rows = append(tbl.Rows, []string{
		fmt.Sprintf("dynamic (surveyed → ch %d)", best),
		metrics.FormatKBps(c2.Rec.ThroughputKBps(dur)),
		metrics.FormatPct(c2.Rec.Connectivity(dur))})
	return tbl
}
