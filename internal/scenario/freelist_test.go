package scenario

import (
	"sync"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/sim"
)

// A client migrates while its uplink ACKs and downlink segments are in
// flight across the old world's backhaul. RemoveClient must drain those
// carriers into the old world's free list, disarmed, so that afterwards
// the two worlds can run on separate goroutines (as shard tiles do) with
// nothing of one touching the other. Run under -race.
func TestMigrationDrainsCarriersIntoOldWorld(t *testing.T) {
	ap := func(id uint32) APSpec {
		return APSpec{ID: id, Pos: geo.Point{X: 20}, Channel: 6, BackhaulKbps: 2000,
			OfferLatency: sim.Constant{V: 50 * time.Millisecond},
			AckLatency:   sim.Constant{V: 20 * time.Millisecond}}
	}
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	here := geo.Static{P: geo.Point{}}
	a, b := NewWorld(3, labRadio()), NewWorld(4, labRadio())
	a.AddAP(ap(1))
	b.AddAP(ap(2))
	c := a.AddClient(cfg, here)
	stay := a.AddClient(cfg, geo.Static{P: geo.Point{X: 5}})

	for a.Kernel.Now() < 30*time.Second && (len(c.upLive) == 0 || len(c.downLive) == 0) {
		a.Run(a.Kernel.Now() + time.Millisecond)
	}
	up, down := len(c.upLive), len(c.downLive)
	if up == 0 || down == 0 {
		t.Fatalf("no carriers in flight to migrate with (up %d, down %d)", up, down)
	}
	freeBefore := a.linkFree.Len()
	recs := a.RemoveClient(c)
	if len(c.upLive) != 0 || len(c.downLive) != 0 {
		t.Fatalf("carriers still live after RemoveClient: up %d, down %d", len(c.upLive), len(c.downLive))
	}
	if got := a.linkFree.Len() - freeBefore; got != up+down {
		t.Fatalf("%d carriers returned to the old world's free list, want %d", got, up+down)
	}
	// Pop every free carrier to inspect it, then put them back in order.
	free := make([]*linkSeg, a.linkFree.Len())
	for i := range free {
		free[i], _ = a.linkFree.Get()
	}
	for i, ls := range free {
		if ls.c != nil || ls.node != nil || ls.seg != nil || ls.ev.Pending() {
			t.Fatalf("free carrier %d still armed: client %v, node %v, seg %v, pending %v",
				i, ls.c != nil, ls.node != nil, ls.seg != nil, ls.ev.Pending())
		}
		if ls.w != a {
			t.Fatalf("free carrier %d belongs to another world", i)
		}
	}
	for i := len(free) - 1; i >= 0; i-- {
		a.linkFree.Put(free[i])
	}
	b.AdoptClient(c, cfg, here, recs)

	var wg sync.WaitGroup
	for _, w := range []*World{a, b} {
		wg.Add(1)
		go func(w *World) {
			defer wg.Done()
			w.Run(w.Kernel.Now() + 20*time.Second)
		}(w)
	}
	wg.Wait()
	if c.Driver.ConnectedCount() != 1 || c.ActiveFlows() != 1 {
		t.Fatalf("migrated client not carrying traffic in its new world: %+v", c.Driver.Stats())
	}
	for _, ls := range append(append([]*linkSeg(nil), c.upLive...), c.downLive...) {
		if ls.w != b || ls.c != c {
			t.Fatal("migrated client's carrier does not come from its new world")
		}
	}
	if stay.Driver.ConnectedCount() != 1 || stay.ActiveFlows() != 1 {
		t.Fatalf("client left behind stopped carrying traffic: %+v", stay.Driver.Stats())
	}
}
