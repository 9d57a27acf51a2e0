package scenario

import (
	"sync"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/mac"
	"spider/internal/sim"
	"spider/internal/tcpsim"
	"spider/internal/wifi"
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

	var up, down int
	for a.Kernel.Now() < 30*time.Second && (up == 0 || down == 0) {
		a.Run(a.Kernel.Now() + time.Millisecond)
		up, down = inFlight(t, c)
	}
	if up == 0 || down == 0 {
		t.Fatalf("no carriers in flight to migrate with (up %d, down %d)", up, down)
	}
	freeBefore, segsBefore := a.segCarriers.Len(), a.segPool.Len()
	recs := a.RemoveClient(c)
	if c.segs.Len() != 0 {
		t.Fatalf("%d carriers still live after RemoveClient", c.segs.Len())
	}
	if got := a.segCarriers.Len() - freeBefore; got != up+down {
		t.Fatalf("%d carriers returned to the old world's free list, want %d", got, up+down)
	}
	if got := a.segPool.Len() - segsBefore; got != up+down {
		t.Fatalf("%d segments returned to the old world's free list, want %d", got, up+down)
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
	if c.Driver.ConnectedCount() != 1 || len(c.conns) != 1 {
		t.Fatalf("migrated client not carrying traffic in its new world: %+v", c.Driver.Stats())
	}
	if c.segs.Pool() != &b.segCarriers || c.segs.Len() == 0 {
		t.Fatalf("migrated client's %d carriers do not come from its new world", c.segs.Len())
	}
	if stay.Driver.ConnectedCount() != 1 || len(stay.conns) != 1 {
		t.Fatalf("client left behind stopped carrying traffic: %+v", stay.Driver.Stats())
	}
}

// inFlight counts c's segments in flight up and down its backhauls.
func inFlight(t *testing.T, c *Client) (up, down int) {
	t.Helper()
	segs, err := c.segs.Capture()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range segs {
		if f.Kind == segUp {
			up++
		} else {
			down++
		}
	}
	return up, down
}

// A transfer the backhaul refuses (here a blackhole; a full shaper queue
// takes the same path) arms no carrier, and its segment goes straight
// back to the world's pool: the sender's contract is that the transmit
// owner puts every segment back. On a warm world, refused uplink ACKs
// and downlink segments leave both free lists as they were and
// allocate nothing.
func TestRefusedBackhaulSendRecycles(t *testing.T) {
	w := NewWorld(1, labRadio())
	node := w.AddAP(APSpec{Pos: geo.Point{X: 20}, Channel: 6, BackhaulKbps: 2000,
		OfferLatency: sim.Constant{V: 50 * time.Millisecond},
		AckLatency:   sim.Constant{V: 20 * time.Millisecond}})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
	w.Run(10 * time.Second)
	if !apAssociated(t, node.AP, c.Addr()) || len(c.conns) != 1 {
		t.Fatal("client not downloading through the AP")
	}
	node.Link.SetBlackhole(true)
	for end := w.Kernel.Now() + 5*time.Second; c.segs.Len() > 0 && w.Kernel.Now() < end; {
		w.Run(w.Kernel.Now() + 10*time.Millisecond)
	}
	if c.segs.Len() != 0 {
		t.Fatalf("%d segments still in flight across a blackholed link", c.segs.Len())
	}

	ack := &wifi.Frame{Type: wifi.TypeData, SA: c.Addr(), DA: node.AP.Addr(), BSSID: node.AP.Addr(),
		Body: &wifi.DataBody{Proto: wifi.ProtoTCP,
			Header: (&tcpsim.Segment{FlowID: 1, Ack: 1, IsAck: true}).AppendEncode(nil)}}
	carriers, segs, drops := w.segCarriers.Len(), w.segPool.Len(), node.Link.ExportState().BlackholeDrops
	if carriers == 0 || segs == 0 {
		t.Fatalf("%d free carriers and %d free segments once the link went dark; a warm world has both", carriers, segs)
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		node.AP.RadioReceive(ack)
		c.carry(node, w.segPool.Get(), segDown)
	})
	if got := node.Link.ExportState().BlackholeDrops - drops; got != 2*(runs+1) {
		t.Fatalf("the link refused %d transfers, want %d", got, 2*(runs+1))
	}
	if w.segCarriers.Len() != carriers || w.segPool.Len() != segs || c.segs.Len() != 0 {
		t.Fatalf("refused sends: %d free carriers (was %d), %d free segments (was %d), %d in flight",
			w.segCarriers.Len(), carriers, w.segPool.Len(), segs, c.segs.Len())
	}
	if allocs != 0 {
		t.Fatalf("a refused ACK and segment allocated %.1f times per round", allocs)
	}
}

// apAssociated reports whether ap's association table, read through its
// checkpoint export, holds client as associated.
func apAssociated(t *testing.T, ap *mac.AP, client wifi.Addr) bool {
	t.Helper()
	st, err := ap.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Client {
		if c.Addr == client {
			return c.Associated
		}
	}
	return false
}
