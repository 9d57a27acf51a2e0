package scenario

import (
	"testing"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/wifi"
)

// The driver reports to its client through core.Host and its radio
// reads the client's mobility model, so building a client's driver
// makes no closure: no position func, no flow, log or data-sink
// callbacks. The counts below are measured on a warm world and pinned,
// so a new per-client allocation shows up here.
const (
	addClientAllocs     = 15
	migrationTripAllocs = 22
)

// Adding a client allocates the client with its recorder and flow map,
// the driver with its scan table and interface map, the radio, and the
// driver's named RNG stream.
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
