package shard

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/geo"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/sweep"
)

// testSpec is a small-but-real city: a 4×1 tile grid at the default
// 200 m halo, dense enough that clients roam between APs and cross
// tile boundaries within the run. (TestTwoDimensionalByteIdentity
// covers the 2-D case with both row and column edges live.)
func testSpec(seed int64) scenario.CityGridSpec {
	spec := scenario.CityGrid(seed, 40, 10)
	spec.AreaW = 1600
	spec.AreaH = 400
	spec.BlockMinM = 100
	spec.BlockMaxM = 300
	spec.SpeedMS = 20
	spec.Radio = radio.Defaults()
	spec.Radio.DataRateKbps = 24_000
	return spec
}

func testCfg() core.Config {
	return core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
}

// fingerprint captures everything a run exports: merged metrics, the
// merged trace, and a per-client ledger ordered by planned identity.
func fingerprint(t *testing.T, c *City) string {
	t.Helper()
	var prom, trace bytes.Buffer
	if err := c.MergedSnapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteEventsJSONL(&trace, c.TraceEvents()); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "now=%v migrations=%d injected=%d\n", c.Now(), c.Migrations, c.TotalInjected())
	for _, cl := range c.Clients() {
		s := cl.Stats()
		fmt.Fprintf(&b, "client %v joins=%d switches=%d joinsOK=%d dhcpOK=%d goodput=%d tcp=%+v inv=%d\n",
			cl.Addr(), len(cl.Joins), s.Switches, s.JoinSuccesses, s.DHCPSuccesses,
			cl.Rec.TotalBytes(), cl.TCPStats(), cl.InvariantsTotal())
		for _, j := range cl.Joins {
			fmt.Fprintf(&b, "  join %v ok=%v elapsed=%v at=%v\n", j.BSSID, j.Success, j.Elapsed, j.At)
		}
	}
	b.WriteString("=== prom ===\n")
	b.Write(prom.Bytes())
	b.WriteString("=== trace ===\n")
	b.Write(trace.Bytes())
	return b.String()
}

func runCity(t *testing.T, seed int64, workers int, chaos bool, until time.Duration) *City {
	t.Helper()
	c := NewCity(testSpec(seed), testCfg(), workers)
	c.EnableObs(0)
	if chaos {
		c.ApplyChaos(fault.Aggressive())
	}
	if err := c.Run(until); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLayoutInvariants(t *testing.T) {
	cases := []struct {
		name string
		spec scenario.CityGridSpec
	}{
		{"default", scenario.CityGrid(1, 500, 200)},
		{"test", testSpec(1)},
		{"fast", func() scenario.CityGridSpec { s := testSpec(1); s.SpeedMS = 40; return s }()},
		{"static", func() scenario.CityGridSpec { s := testSpec(1); s.SpeedMS = 0; return s }()},
		{"tiny", func() scenario.CityGridSpec { s := testSpec(1); s.AreaW = 300; return s }()},
		{"headline", func() scenario.CityGridSpec {
			s := scenario.CityGrid(1, 2000, 200)
			s.AreaW, s.AreaH = 6000, 6000
			return s
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := DeriveLayout(tc.spec, tc.spec.Plan())
			rc := tc.spec.Radio
			if rc.Range == 0 {
				rc = radio.Defaults()
			}
			if l.NTiles < 1 || l.NTiles != l.Nx*l.Ny {
				t.Fatalf("bad grid: %+v", l)
			}
			for _, ax := range []struct {
				bounds []float64
				n      int
				w      float64
			}{{l.XBounds, l.Nx, tc.spec.AreaW}, {l.YBounds, l.Ny, tc.spec.AreaH}} {
				if len(ax.bounds) != ax.n+1 || ax.bounds[0] != 0 || ax.bounds[ax.n] != ax.w {
					t.Fatalf("bounds not pinned to world edges: %+v", l)
				}
				for i := 0; i < ax.n; i++ {
					span := ax.bounds[i+1] - ax.bounds[i]
					if ax.n > 1 && span < 2*l.Halo {
						t.Fatalf("span %d narrower than twice the halo — mirrors would skip tiles: %+v", i, l)
					}
					if span <= 0 {
						t.Fatalf("non-increasing bounds: %+v", l)
					}
				}
			}
			vmax := speedSpread * tc.spec.SpeedMS
			if l.Halo < rc.Range+vmax*l.Epoch.Seconds() {
				t.Fatalf("halo does not cover range+drift: %+v", l)
			}
			if l.Epoch < minEpoch || l.Epoch > maxEpoch {
				t.Fatalf("epoch outside bounds: %+v", l)
			}
			last := geo.Point{X: tc.spec.AreaW - 1e-9, Y: tc.spec.AreaH - 1e-9}
			if l.TileOf(geo.Point{}) != 0 || l.TileOf(last) != l.NTiles-1 {
				t.Fatalf("world corners map outside tile range: %+v", l)
			}
			if l.Nx > 1 && l.TileOf(geo.Point{X: l.XBounds[1]}) != 1 {
				t.Fatalf("column boundary not owned by the upper tile: %+v", l)
			}
			if l.Ny > 1 && l.TileOf(geo.Point{Y: l.YBounds[1]}) != l.Nx {
				t.Fatalf("row boundary not owned by the upper tile: %+v", l)
			}
			if l.TileOf(geo.Point{X: -5, Y: -5}) != 0 ||
				l.TileOf(geo.Point{X: tc.spec.AreaW + 5, Y: tc.spec.AreaH + 5}) != l.NTiles-1 {
				t.Fatal("out-of-world positions must clamp")
			}
		})
	}
}

// TestWorkerCountByteIdentity is the headline guarantee: the exported
// universe — merged metrics, merged trace, every client's join log and
// byte counts — is identical at any worker count, across seeds.
func TestWorkerCountByteIdentity(t *testing.T) {
	const until = 20 * time.Second
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := runCity(t, seed, 1, false, until)
			if base.Layout.NTiles != 4 {
				t.Fatalf("fixture expects 4 tiles, layout %v", base.Layout)
			}
			want := fingerprint(t, base)
			var halo uint64
			for _, tile := range base.Tiles {
				halo += tile.World.Medium.Stats().HaloInjected
			}
			if halo == 0 {
				t.Fatal("no halo beacons crossed — fixture exercises nothing")
			}
			if base.Migrations == 0 {
				t.Fatal("no client migrated — fixture exercises nothing")
			}
			for _, workers := range []int{2, 4, 8} {
				got := fingerprint(t, runCity(t, seed, workers, false, until))
				if got != want {
					t.Fatalf("workers=%d diverged from workers=1\n%s", workers, firstDiff(want, got))
				}
			}
		})
	}
}

// TestTwoDimensionalByteIdentity repeats the worker sweep on a city
// whose layout is a genuine 2-D grid, so row edges, column edges, and
// corner adjacency all carry halo traffic and migrations. The 1-D
// fixture above cannot see a bug in the row-neighbor or diagonal
// mirroring paths.
func TestTwoDimensionalByteIdentity(t *testing.T) {
	const until = 20 * time.Second
	spec2d := func(seed int64) scenario.CityGridSpec {
		spec := testSpec(seed)
		spec.AreaW = 1200
		spec.AreaH = 800
		return spec
	}
	run := func(seed int64, workers int) *City {
		c := NewCity(spec2d(seed), testCfg(), workers)
		c.EnableObs(0)
		if err := c.Run(until); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := run(seed, 1)
			if base.Layout.Nx < 2 || base.Layout.Ny < 2 {
				t.Fatalf("fixture expects a 2-D grid, layout %v", base.Layout)
			}
			var halo uint64
			for _, tile := range base.Tiles {
				halo += tile.World.Medium.Stats().HaloInjected
			}
			if halo == 0 {
				t.Fatal("no halo beacons crossed — fixture exercises nothing")
			}
			if base.Migrations == 0 {
				t.Fatal("no client migrated — fixture exercises nothing")
			}
			want := fingerprint(t, base)
			for _, workers := range []int{2, 8} {
				got := fingerprint(t, run(seed, workers))
				if got != want {
					t.Fatalf("2-D workers=%d diverged from workers=1\n%s", workers, firstDiff(want, got))
				}
			}
		})
	}
}

// TestChaosByteIdentity repeats the worker sweep under the aggressive
// fault profile: per-tile injectors drawing from world-seed streams
// must fire identically at any worker count.
func TestChaosByteIdentity(t *testing.T) {
	const until = 20 * time.Second
	base := runCity(t, 7, 1, true, until)
	if base.TotalInjected() == 0 {
		t.Fatal("aggressive profile injected nothing")
	}
	want := fingerprint(t, base)
	for _, workers := range []int{2, 4, 8} {
		c := runCity(t, 7, workers, true, until)
		if got := fingerprint(t, c); got != want {
			t.Fatalf("chaos workers=%d diverged\n%s", workers, firstDiff(want, got))
		}
	}
}

// TestSingleTileMatchesPlannedWorld pins the builder wiring: a one-tile
// city is exactly the planned world advanced in epochs, so its client
// ledger must match a hand-built world running the same plan.
func TestSingleTileMatchesPlannedWorld(t *testing.T) {
	spec := testSpec(5)
	spec.AreaW = 390 // below 2×halo → single tile
	cfg := testCfg()

	c := NewCity(spec, cfg, 1)
	if c.Layout.NTiles != 1 {
		t.Fatalf("fixture expects 1 tile, layout %v", c.Layout)
	}
	if err := c.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	plan := spec.Plan()
	rcfg := spec.Radio
	w := scenario.NewWorld(sweep.TaskSeed(spec.Seed, "shard.tile", 0), rcfg)
	for _, ap := range plan.APs {
		w.AddAP(ap.Spec())
	}
	for _, cp := range plan.Clients {
		w.AddClientAddr(cp.Addr(), cfg, cp.Mob)
	}
	w.Run(15 * time.Second)

	cc := c.Clients()
	if len(cc) != len(w.Clients) {
		t.Fatalf("client counts differ: %d vs %d", len(cc), len(w.Clients))
	}
	for i := range cc {
		a, b := cc[i], w.Clients[i]
		if a.Addr() != b.Addr() || a.Stats() != b.Stats() || len(a.Joins) != len(b.Joins) ||
			a.Rec.TotalBytes() != b.Rec.TotalBytes() {
			t.Fatalf("client %v diverged from plain world:\n city %+v\n world %+v",
				a.Addr(), a.Stats(), b.Stats())
		}
	}
}

// firstDiff renders the first differing line of two fingerprints.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
