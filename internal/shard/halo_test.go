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
