package scenario

import (
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/sim"
)

func labRadio() radio.Config {
	return radio.Config{Range: 100, Loss: 0.02, EdgeStart: 1, DataRetryLimit: 6}
}

func TestStaticClientDownloadsThroughOneAP(t *testing.T) {
	w := NewWorld(1, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 20}, Channel: 6, BackhaulKbps: 2000,
		OfferLatency: sim.Constant{V: 50 * time.Millisecond},
		AckLatency:   sim.Constant{V: 20 * time.Millisecond}})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
	w.Run(30 * time.Second)
	if c.Driver.ConnectedCount() != 1 {
		t.Fatalf("not connected: %+v", c.Driver.Stats())
	}
	if len(c.conns) != 1 {
		t.Fatalf("flows = %d", len(c.conns))
	}
	kbps := c.Rec.ThroughputKBps(30*time.Second) * 8
	// 2 Mbps backhaul minus join time and air overhead: expect >1 Mbps.
	if kbps < 1000 {
		t.Fatalf("throughput %.0f kbps through 2 Mbps backhaul", kbps)
	}
}

func TestTwoAPsOneChannelAggregate(t *testing.T) {
	// The Fig 9 headline: Spider joined to two APs on one channel doubles
	// the single-AP backhaul-limited throughput.
	run := func(nAPs int) float64 {
		w := StaticLab(2, 1500, repeatCh(6, nAPs)...)
		mode := core.SingleChannelMultiAP
		if nAPs == 1 {
			mode = core.SingleChannelSingleAP
		}
		cfg := core.SpiderDefaults(mode, []core.ChannelSlice{{Channel: 6}})
		c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
		w.Run(60 * time.Second)
		if c.Driver.ConnectedCount() != nAPs {
			t.Fatalf("connected %d of %d", c.Driver.ConnectedCount(), nAPs)
		}
		return c.Rec.ThroughputKBps(60 * time.Second)
	}
	one := run(1)
	two := run(2)
	if two < 1.6*one {
		t.Fatalf("two APs gave %.1f KB/s vs one AP %.1f KB/s — no aggregation", two, one)
	}
}

func repeatCh(ch, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = ch
	}
	return out
}

func TestFlowDiesWithAssociation(t *testing.T) {
	w := NewWorld(3, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 30}, Channel: 6,
		OfferLatency: sim.Constant{V: 50 * time.Millisecond},
		AckLatency:   sim.Constant{V: 20 * time.Millisecond}})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	mob := &geo.RouteMobility{Route: geo.StraightRoad(5000), SpeedMS: 15}
	c := w.AddClient(cfg, mob)
	w.Run(120 * time.Second)
	if len(c.conns) != 0 {
		t.Fatalf("flow still open after leaving range: %d", len(c.conns))
	}
	if c.Rec.TotalBytes() == 0 {
		t.Fatal("no bytes transferred during the pass")
	}
}

func TestDriveScenarioProducesJoinsAndTraffic(t *testing.T) {
	spec := AmherstDrive(4)
	w, mob := spec.Build()
	if len(w.APs) != spec.NumAPs {
		t.Fatalf("deployed %d APs", len(w.APs))
	}
	cfg := core.SpiderDefaults(core.SingleChannelMultiAP, []core.ChannelSlice{{Channel: 6}})
	c := w.AddClient(cfg, mob)
	w.Run(5 * time.Minute)
	if len(c.SuccessfulJoins()) == 0 {
		t.Fatalf("no successful joins on the drive: %+v", c.Driver.Stats())
	}
	if c.Rec.TotalBytes() == 0 {
		t.Fatal("no data transferred on the drive")
	}
	conn := c.Rec.Connectivity(5 * time.Minute)
	if conn <= 0 || conn >= 1 {
		t.Fatalf("connectivity %.2f implausible for a drive", conn)
	}
}

func TestDriveDeterministicGivenSeed(t *testing.T) {
	run := func() (int64, int) {
		w, mob := AmherstDrive(9).Build()
		cfg := core.SpiderDefaults(core.MultiChannelMultiAP, core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
		c := w.AddClient(cfg, mob)
		w.Run(3 * time.Minute)
		return c.Rec.TotalBytes(), len(c.Joins)
	}
	b1, j1 := run()
	b2, j2 := run()
	if b1 != b2 || j1 != j2 {
		t.Fatalf("drive not deterministic: (%d,%d) vs (%d,%d)", b1, j1, b2, j2)
	}
}

func TestChannelMixOfDeployment(t *testing.T) {
	w, _ := AmherstDrive(5).Build()
	counts := map[int]int{}
	for _, ap := range w.APs {
		counts[ap.AP.Channel()]++
	}
	if counts[1] == 0 || counts[6] == 0 || counts[11] == 0 {
		t.Fatalf("orthogonal channels not all populated: %v", counts)
	}
}

func TestIndoorWorldSingleAP(t *testing.T) {
	w := Indoor(6, 1, 4000)
	if len(w.APs) != 1 || w.APs[0].AP.Channel() != 1 {
		t.Fatal("indoor world wrong")
	}
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 1}})
	c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
	w.Run(30 * time.Second)
	kbps := c.Rec.ThroughputKBps(30*time.Second) * 8
	if kbps < 2500 {
		t.Fatalf("indoor full-dwell throughput %.0f kbps over 4 Mbps backhaul", kbps)
	}
}

func TestTwoClientsTwoAPsIndependentFlows(t *testing.T) {
	// The "two cards, stock" configuration of Fig 9: two independent
	// clients (cards), each bound to its own AP/channel.
	w := NewWorld(7, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 15}, Channel: 1, BackhaulKbps: 1500,
		OfferLatency: sim.Constant{V: 30 * time.Millisecond}, AckLatency: sim.Constant{V: 15 * time.Millisecond}})
	w.AddAP(APSpec{Pos: geo.Point{X: 25}, Channel: 11, BackhaulKbps: 1500,
		OfferLatency: sim.Constant{V: 30 * time.Millisecond}, AckLatency: sim.Constant{V: 15 * time.Millisecond}})
	c1 := w.AddClient(core.StockDefaults([]core.ChannelSlice{{Channel: 1}}), geo.Static{P: geo.Point{}})
	c2 := w.AddClient(core.StockDefaults([]core.ChannelSlice{{Channel: 11}}), geo.Static{P: geo.Point{}})
	w.Run(60 * time.Second)
	if c1.Driver.ConnectedCount() != 1 || c2.Driver.ConnectedCount() != 1 {
		t.Fatalf("cards connected: %d %d", c1.Driver.ConnectedCount(), c2.Driver.ConnectedCount())
	}
	t1 := c1.Rec.ThroughputKBps(60 * time.Second)
	t2 := c2.Rec.ThroughputKBps(60 * time.Second)
	if t1 < 100 || t2 < 100 {
		t.Fatalf("two-card throughputs %.1f / %.1f KB/s", t1, t2)
	}
}

func TestWebWorkloadFetchesPages(t *testing.T) {
	w := NewWorld(8, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 20}, Channel: 6, BackhaulKbps: 4000,
		OfferLatency: sim.Constant{V: 30 * time.Millisecond},
		AckLatency:   sim.Constant{V: 15 * time.Millisecond}})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
	c.SetWorkload(DefaultWebWorkload())
	w.Run(2 * time.Minute)
	if c.Web.PagesCompleted < 10 {
		t.Fatalf("only %d pages in 2min on a static link", c.Web.PagesCompleted)
	}
	if len(c.Web.LoadTimes) != c.Web.PagesCompleted {
		t.Fatal("load times out of sync with page count")
	}
	for _, lt := range c.Web.LoadTimes {
		if lt <= 0 || lt > time.Minute {
			t.Fatalf("implausible page load %v", lt)
		}
	}
	// A static, healthy link should abort nothing.
	if c.Web.PagesAborted != 0 {
		t.Fatalf("%d aborted pages on a static link", c.Web.PagesAborted)
	}
}

func TestWebWorkloadAbortsOnDeparture(t *testing.T) {
	w := NewWorld(9, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 30}, Channel: 6, BackhaulKbps: 500,
		OfferLatency: sim.Constant{V: 30 * time.Millisecond},
		AckLatency:   sim.Constant{V: 15 * time.Millisecond}})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	mob := &geo.RouteMobility{Route: geo.StraightRoad(3000), SpeedMS: 15}
	c := w.AddClient(cfg, mob)
	// Big slow pages: departure almost certainly lands mid-fetch.
	wl := DefaultWebWorkload()
	wl.PageBytes = func(int64) int64 { return 5_000_000 }
	c.SetWorkload(wl)
	w.Run(3 * time.Minute)
	if c.Web.PagesAborted == 0 {
		t.Fatalf("no aborted pages despite driving out of range (completed %d)", c.Web.PagesCompleted)
	}
}

func TestStopAndGoMobilityInWorld(t *testing.T) {
	spec := AmherstDrive(11)
	w, _ := spec.Build()
	sg := &geo.StopAndGo{
		Route: geo.RectLoop(spec.LoopW, spec.LoopH), SpeedMS: 10,
		StopEvery: 250, StopDur: 15 * time.Second, Loop: true, Seed: 11,
	}
	cfg := core.SpiderDefaults(core.SingleChannelMultiAP, []core.ChannelSlice{{Channel: 1}})
	c := w.AddClient(cfg, sg)
	w.Run(5 * time.Minute)
	if c.Rec.TotalBytes() == 0 {
		t.Fatal("stop-and-go drive transferred nothing")
	}
}
