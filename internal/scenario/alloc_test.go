package scenario

import (
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// The driver reports to its client through core.Host and its radio
// reads the client's mobility model, so building a client's driver
// makes no closure: no position func, no flow, log or data-sink
// callbacks. The counts below are measured on a warm world and pinned,
// so a new per-client allocation shows up here. coldJoinAllocs is per
// client over a join storm's first second: 76.6 measured (76.9 under
// the race detector), 104.4 while carrier sets, driver scratch and
// transmit queues grew from nil and each RNG stream kept its name in a
// string of its own.
const (
	addClientAllocs     = 14
	migrationTripAllocs = 22
	coldJoinAllocs      = 78
)

// Adding a client allocates the client with its recorder and flow map,
// the driver with its scan table and interface map, the radio, and the
// driver's named RNG stream (its name goes into the kernel's arena).
func TestAddClientAllocations(t *testing.T) {
	const runs = 100
	w := NewWorld(1, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 20}, Channel: 6})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	here := geo.Static{P: geo.Point{}}
	w.AddClient(cfg, here)
	n := uint32(1)
	allocs := testing.AllocsPerRun(runs, func() {
		n++
		w.AddClientAddr(wifi.NewAddr(0xC0, n), cfg, here)
	})
	if allocs > addClientAllocs {
		t.Fatalf("AddClient allocated %.0f times, want at most %d", allocs, addClientAllocs)
	}
}

// A migration round trip — out of one world into another, then back —
// retires the client's driver and builds a fresh one, twice.
func TestMigrationRoundTripAllocations(t *testing.T) {
	const runs = 100
	a, b := NewWorld(3, labRadio()), NewWorld(4, labRadio())
	a.AddAP(APSpec{Pos: geo.Point{X: 20}, Channel: 6})
	b.AddAP(APSpec{Pos: geo.Point{X: 20}, Channel: 6})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	here := geo.Static{P: geo.Point{}}
	c := a.AddClient(cfg, here)
	trip := func() {
		b.AdoptClient(c, cfg, here, a.RemoveClient(c))
		a.AdoptClient(c, cfg, here, b.RemoveClient(c))
	}
	trip() // each world names the client's RNG stream once
	allocs := testing.AllocsPerRun(runs, trip)
	if allocs > migrationTripAllocs {
		t.Fatalf("a migration round trip allocated %.0f times, want at most %d", allocs, migrationTripAllocs)
	}
}

// coldJoinWorld is a small join storm: nine APs, three on each of
// channels 1, 6 and 11, and clients spread among them, every one
// starting its 3-channel multi-AP driver at t=0.
func coldJoinWorld(seed int64, clients int) *World {
	w := NewWorld(seed, labRadio())
	for i, ch := range []int{1, 6, 11, 1, 6, 11, 1, 6, 11} {
		w.AddAP(APSpec{Pos: geo.Point{X: float64(30 * (i % 3)), Y: float64(30 * (i / 3))}, Channel: ch,
			OfferLatency: sim.Constant{V: 20 * time.Millisecond},
			AckLatency:   sim.Constant{V: 10 * time.Millisecond}})
	}
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP, core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	for i := 0; i < clients; i++ {
		w.AddClient(cfg, geo.Static{P: geo.Point{X: float64(7 * (i % 9)), Y: float64(9 * (i / 9))}})
	}
	return w
}

// The first virtual second of a join storm allocates only what joining
// creates: interfaces, scan records, RNG streams, flows. Scratch that
// grows from nil (interface lists, candidate lists, transmit queues,
// carrier registries) or a string per RNG stream would show here. Each
// run takes a fresh world built outside the measurement.
func TestColdJoinAllocations(t *testing.T) {
	const runs, clients = 4, 9
	worlds := make([]*World, runs+1) // AllocsPerRun warms up with one call
	for i := range worlds {
		worlds[i] = coldJoinWorld(int64(i+1), clients)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		worlds[next].Run(time.Second)
		next++
	})
	joined := 0
	for _, w := range worlds {
		for _, c := range w.Clients {
			if c.Driver.ConnectedCount() > 0 {
				joined++
			}
		}
	}
	if joined == 0 {
		t.Fatal("no client joined in the first second: the world measures no join")
	}
	perClient := allocs / clients
	t.Logf("%.1f allocations per client, %d of %d clients joined", perClient, joined, len(worlds)*clients)
	if perClient > coldJoinAllocs {
		t.Fatalf("the first second allocated %.1f times per client, want at most %d", perClient, coldJoinAllocs)
	}
}

// The web workload's think-time stream keeps its name, and finding it
// for each page after the first allocates nothing.
func TestWebThinkStreamName(t *testing.T) {
	k := sim.NewKernel(1)
	addr := wifi.NewAddr(0xC0, 7)
	r := webThinkStream(k, addr)
	if r != k.RNG("scenario.web."+addr.String()) {
		t.Fatal("the think-time stream is not the one named scenario.web.<addr>")
	}
	if n := testing.AllocsPerRun(100, func() { webThinkStream(k, addr) }); n != 0 {
		t.Fatalf("finding the think-time stream allocated %.1f times", n)
	}
}
