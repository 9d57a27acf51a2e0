package shard

import (
	"testing"
	"time"

	"spider/internal/scenario"
)

// TestHaloMemoryBounded is the halo layer's leak check: on an APs-only
// city every epoch captures about the same beacons, so the records the
// halo buffers retain must not grow with run length. (Mirror bodies once
// lived on tile-local free lists that were popped by the capturing tile
// and pushed by the receiving one; the lists grew without bound.)
func TestHaloMemoryBounded(t *testing.T) {
	spec := scenario.CityGrid(1, 2000, 0)
	spec.AreaW, spec.AreaH = 6000, 6000
	c := NewCity(spec, testCfg(), 0)
	if c.Layout.NTiles < 4 {
		t.Fatalf("fixture expects a tiled city, layout %v", c.Layout)
	}
	retained := func() (n int) {
		for _, tile := range c.Tiles {
			n += cap(tile.halo[0]) + cap(tile.halo[1])
		}
		return n
	}
	if err := c.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	at20 := retained()
	if at20 == 0 {
		t.Fatal("no halo records captured — fixture exercises nothing")
	}
	if err := c.Run(80 * time.Second); err != nil {
		t.Fatal(err)
	}
	at80 := retained()
	t.Logf("halo records retained: %d at 20 s, %d at 80 s (%v)", at20, at80, c.Layout)
	if at80 > at20 {
		t.Fatalf("halo buffers grew from %d records at 20 s to %d at 80 s", at20, at80)
	}
}

// TestHaloBuffersSizedFromPlan checks the plan-derived halo capacity: a
// tile's buffers are made at haloCap, the second only once the tile
// fills it, and no epoch captures more records than planned, so append
// never moves a buffer.
func TestHaloBuffersSizedFromPlan(t *testing.T) {
	spec := scenario.CityGrid(1, 2000, 200)
	spec.AreaW, spec.AreaH = 6000, 6000
	c := NewCity(spec, testCfg(), 0)
	if c.Layout.NTiles < 4 {
		t.Fatalf("fixture expects a tiled city, layout %v", c.Layout)
	}
	planned := 0
	for _, tile := range c.Tiles {
		planned += tile.haloCap
		if cap(tile.halo[tile.cur]) != tile.haloCap || cap(tile.halo[tile.cur^1]) != 0 {
			t.Fatalf("tile %d built with buffers of %d and %d records, want %d and 0",
				tile.Index, cap(tile.halo[tile.cur]), cap(tile.halo[tile.cur^1]), tile.haloCap)
		}
	}
	if planned == 0 {
		t.Fatal("no tile plans a halo record — fixture exercises nothing")
	}
	if err := c.Run(c.Layout.Epoch); err != nil {
		t.Fatal(err)
	}
	for _, tile := range c.Tiles {
		if cap(tile.halo[tile.cur]) != 0 {
			t.Fatalf("tile %d made its second buffer during a one-epoch run", tile.Index)
		}
	}
	used, peak := 0, 0
	for c.Now() < 20*time.Second {
		if err := c.Run(c.Now() + c.Layout.Epoch); err != nil {
			t.Fatal(err)
		}
		for _, tile := range c.Tiles {
			// The buffer the last epoch filled, now the read side.
			recs := tile.halo[tile.cur^1]
			if cap(recs) != tile.haloCap {
				t.Fatalf("tile %d at %v: buffer of %d records, planned %d (%d captured)",
					tile.Index, c.Now(), cap(recs), tile.haloCap, len(recs))
			}
			used += len(recs)
			peak = max(peak, len(recs))
		}
	}
	t.Logf("planned %d records per epoch across tiles; captured %d over %v, one tile's peak epoch %d (%v)",
		planned, used, c.Now(), peak, c.Layout)
}
