package shard

import (
	"testing"
	"time"

	"spider/internal/radio"
	"spider/internal/scenario"
)

// TestTileArenasReservedAtBuild: NewCity reserves each tile's event
// arena for the events its build queued plus slotsPerClient per
// resident client, so the join storm's first virtual second runs in the
// arenas the build made. The fixture is spider-bench's quick storm
// (3×3 km, 500 APs, 1,000 clients, 49 tiles, every client joining at
// once). Without the reservation the tiles' summed capacity grew from
// about 5,000 to about 13,000 slots in that second. With it, seeds 1-5
// grew by 0-2.6% of what the build reserved (a tile or two whose
// clients beat the per-client figure doubled); the bound is 5%.
func TestTileArenasReservedAtBuild(t *testing.T) {
	spec := scenario.CityGrid(1, 500, 1000)
	spec.AreaW, spec.AreaH = 3000, 3000
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	spec.Radio = rc
	c := NewCity(spec, testCfg(), 0)
	capacity := func() (n int) {
		for _, tile := range c.Tiles {
			n += tile.World.Kernel.SlotCap()
		}
		return n
	}
	for _, tile := range c.Tiles {
		k := tile.World.Kernel
		if want := k.Len() + slotsPerClient*len(tile.World.Clients); k.SlotCap() < want {
			t.Fatalf("tile %d built with %d slots for %d queued events and %d clients, want at least %d",
				tile.Index, k.SlotCap(), k.Len(), len(tile.World.Clients), want)
		}
	}
	built := capacity()
	if err := c.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	grown := capacity() - built
	t.Logf("slot capacity %d at build, grew by %d in the first second (%v)", built, grown, c.Layout)
	if 20*grown > built {
		t.Fatalf("tile arenas grew by %d slots in the first second, over 5%% of the %d reserved at build", grown, built)
	}
}
