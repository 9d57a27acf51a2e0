package scenario

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/radio"
)

// buildRestoreWorld is the fixed construction both sides of a restore
// comparison run: multi-channel, a mobile client crossing coverage and
// a static client parked in an overlap.
func buildRestoreWorld() *World {
	w := NewWorld(7, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 20}, Channel: 1})
	w.AddAP(APSpec{Pos: geo.Point{X: 60}, Channel: 6})
	w.AddAP(APSpec{Pos: geo.Point{X: 100}, Channel: 6})
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6))
	w.AddClient(cfg, &geo.RouteMobility{Route: geo.StraightRoad(200), SpeedMS: 3})
	w.AddClient(cfg, geo.Static{P: geo.Point{X: 55}})
	return w
}

// worldSignature digests everything observable about a world; two runs
// that went through the same event sequence produce identical strings.
func worldSignature(w *World) string {
	s := fmt.Sprintf("now=%v fired=%d seq=%d medium=%+v",
		w.Kernel.Now(), w.Kernel.Fired(), w.Kernel.NextSeq(), w.Medium.Stats())
	for _, c := range w.Clients {
		s += fmt.Sprintf("\n%s stats=%+v tcp=%+v joins=%v assocs=%d rec=%+v flows=%d inv=%d",
			c.Addr(), c.Stats(), c.TCPStats(), c.Joins, len(c.Assocs),
			c.Rec.ExportState(), len(c.conns), c.InvariantsTotal())
	}
	for _, n := range w.APs {
		s += fmt.Sprintf("\nap=%s link=%+v", n.AP.Addr(), n.Link.ExportState())
	}
	return s
}

func TestWorldCheckpointRoundTrip(t *testing.T) {
	const t1, t2 = 20 * time.Second, 45 * time.Second

	ref := buildRestoreWorld()
	ref.Run(t2)
	want := worldSignature(ref)

	// Interrupted run: advance to t1 and checkpoint mid-everything.
	a := buildRestoreWorld()
	a.Run(t1)
	ws, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	rngs := a.Kernel.ExportRNGs()
	now, seq, fired := a.Kernel.Now(), a.Kernel.NextSeq(), a.Kernel.Fired()

	// Taking the snapshot must not perturb the run it came from.
	a.Run(t2)
	if got := worldSignature(a); got != want {
		t.Fatalf("export perturbed the running world:\n got %s\nwant %s", got, want)
	}

	// Fresh build, rewound and resumed.
	b := buildRestoreWorld()
	b.Kernel.BeginRestore(now, seq, fired)
	if err := b.RestoreState(ws); err != nil {
		t.Fatal(err)
	}
	b.Kernel.RestoreRNGs(rngs)
	b.Run(t2)
	if got := worldSignature(b); got != want {
		t.Fatalf("resumed run diverged:\n got %s\nwant %s", got, want)
	}
}

// TestWorldCheckpointAtManyEpochs sweeps the snapshot instant across
// the run, so in-flight joins, DHCP exchanges, switches, and TCP bursts
// all get a turn at being bisected by the checkpoint.
func TestWorldCheckpointAtManyEpochs(t *testing.T) {
	const t2 = 40 * time.Second
	ref := buildRestoreWorld()
	ref.Run(t2)
	want := worldSignature(ref)

	for _, t1 := range []time.Duration{
		500 * time.Millisecond, 3 * time.Second, 11 * time.Second, 27 * time.Second,
	} {
		a := buildRestoreWorld()
		a.Run(t1)
		ws, err := a.ExportState()
		if err != nil {
			t.Fatalf("t1=%v: %v", t1, err)
		}
		rngs := a.Kernel.ExportRNGs()
		now, seq, fired := a.Kernel.Now(), a.Kernel.NextSeq(), a.Kernel.Fired()

		b := buildRestoreWorld()
		b.Kernel.BeginRestore(now, seq, fired)
		if err := b.RestoreState(ws); err != nil {
			t.Fatalf("t1=%v: %v", t1, err)
		}
		b.Kernel.RestoreRNGs(rngs)
		b.Run(t2)
		if got := worldSignature(b); got != want {
			t.Errorf("t1=%v: resumed run diverged:\n got %s\nwant %s", t1, got, want)
		}
	}
}

func TestWebWorkloadRefusesCheckpoint(t *testing.T) {
	w := NewWorld(9, labRadio())
	w.AddAP(APSpec{Pos: geo.Point{X: 10}, Channel: 6})
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	c := w.AddClient(cfg, geo.Static{P: geo.Point{}})
	c.SetWorkload(DefaultWebWorkload())
	w.Run(10 * time.Second)
	if _, err := w.ExportState(); err == nil {
		t.Fatal("web workload world exported without error")
	}
	_ = radio.Config{} // keep import for labRadio callers
}
