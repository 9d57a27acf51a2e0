package radio_test

// The end-to-end equivalence suite for the spatial index: a full
// vehicular drive and a sharded city — driver, MAC, DHCP, TCP, mobility,
// halo mirroring, the whole stack — must produce byte-identical results
// on the indexed medium and on the retained linear scan. This is the
// proof that the index is a pure candidate pre-filter and perturbs
// neither RNG draw order nor event order anywhere. Each run asserts its
// medium mode, so the comparison cannot pass as indexed against indexed.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/shard"
)

func spiderCfg() core.Config {
	return core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
}

// setMode switches m to the linear scan when linear is set, and fails
// unless m ends up in the requested mode.
func setMode(t *testing.T, m *radio.Medium, linear bool) {
	t.Helper()
	if linear {
		radio.UseLinearScan(m)
	}
	if radio.Indexed(m) == linear {
		t.Fatalf("medium indexed=%v, want linear=%v", radio.Indexed(m), linear)
	}
}

// driveFingerprint serializes everything observable about a drive into
// one string: throughput, connectivity, connection/disruption runs,
// driver counters, and medium counters. Any divergence between the
// linear and indexed paths shows up as a text diff.
func driveFingerprint(t *testing.T, seed int64, linear bool) string {
	spec := scenario.AmherstDrive(seed)
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	rc.Loss = 0.08
	rc.EdgeStart = 0.55
	spec.Radio = rc
	world, mob := spec.Build()
	setMode(t, world.Medium, linear)
	client := world.AddClient(spiderCfg(), mob)
	const dur = 4 * time.Minute
	world.Run(dur)

	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d\n", seed)
	fmt.Fprintf(&b, "bytes=%d\n", client.Rec.TotalBytes())
	fmt.Fprintf(&b, "throughput=%.6f\n", client.Rec.ThroughputKBps(dur))
	fmt.Fprintf(&b, "connectivity=%.6f\n", client.Rec.Connectivity(dur))
	fmt.Fprintf(&b, "connections=%v\n", client.Rec.Connections(dur))
	fmt.Fprintf(&b, "disruptions=%v\n", client.Rec.Disruptions(dur))
	fmt.Fprintf(&b, "driver=%+v\n", client.Driver.Stats())
	fmt.Fprintf(&b, "medium=%+v\n", world.Medium.Stats())
	fmt.Fprintf(&b, "fired=%d at=%v\n", world.Kernel.Fired(), world.Kernel.Now())
	return b.String()
}

func TestFullDriveIdenticalWithAndWithoutIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed full drives are slow")
	}
	for _, seed := range []int64{1, 2, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			lin := driveFingerprint(t, seed, true)
			idx := driveFingerprint(t, seed, false)
			if lin != idx {
				t.Fatalf("drive diverged between linear scan and spatial index:\n--- linear ---\n%s\n--- indexed ---\n%s", lin, idx)
			}
		})
	}
}

// TestShardedCityIdenticalWithAndWithoutIndex runs a sharded city —
// many static APs, concurrent clients, several tiles exchanging halo
// beacons at epoch barriers — with every tile's medium on one path or
// the other. This covers the multi-client interactions (collisions,
// carrier sense between clients) the single-client drive cannot, plus
// what only a sharded city does: ghost deliveries of mirrored halo
// frames (InjectFrame). The moving city also migrates clients, so a
// tile registers the radio of a client it adopts. The parked city is a
// small steady-state district (1 km², 75 APs behind 1 Mbps backhaul, 125
// speed-0 clients on a channel-1 schedule): its mobiles take the
// fixed-sample path of both indexed walks, which the moving city never
// does.
func TestShardedCityIdenticalWithAndWithoutIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("city worlds are slow")
	}
	fingerprint := func(t *testing.T, spec scenario.CityGridSpec, cfg core.Config, migrate, linear bool) string {
		c := shard.NewCity(spec, cfg, 2)
		if c.Layout.NTiles < 2 {
			t.Fatalf("fixture expects several tiles, layout %v", c.Layout)
		}
		for _, tile := range c.Tiles {
			setMode(t, tile.World.Medium, linear)
		}
		const dur = time.Minute
		if err := c.Run(dur); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, cl := range c.Clients() {
			fmt.Fprintf(&b, "client=%v bytes=%d conn=%.6f driver=%+v\n",
				cl.Addr(), cl.Rec.TotalBytes(), cl.Rec.Connectivity(dur), cl.Driver.Stats())
		}
		var halo uint64
		for _, tile := range c.Tiles {
			st := tile.World.Medium.Stats()
			halo += st.HaloInjected
			fmt.Fprintf(&b, "tile=%d medium=%+v fired=%d\n", tile.Index, st, tile.World.Kernel.Fired())
		}
		if halo == 0 || (c.Migrations == 0) == migrate {
			t.Fatalf("%d halo frames injected, %d migrations: the city must exercise ghost delivery, and re-registration exactly when its clients move",
				halo, c.Migrations)
		}
		fmt.Fprintf(&b, "migrations=%d\n", c.Migrations)
		return b.String()
	}
	moving := scenario.CityGrid(3, 120, 24)
	parked := scenario.CityGrid(3, 75, 125)
	parked.AreaW, parked.AreaH = 1000, 1000
	parked.SpeedMS = 0
	parked.BackhaulKbps = func(*rand.Rand) int { return 1000 }
	for _, v := range []struct {
		name    string
		spec    scenario.CityGridSpec
		cfg     core.Config
		migrate bool
	}{
		{"moving", moving, spiderCfg(), true},
		{"parked", parked, core.SpiderDefaults(core.MultiChannelMultiAP, core.EqualSchedule(200*time.Millisecond, 1)), false},
	} {
		t.Run(v.name, func(t *testing.T) {
			rc := radio.Defaults()
			rc.DataRateKbps = 24_000
			v.spec.Radio = rc
			lin := fingerprint(t, v.spec, v.cfg, v.migrate, true)
			idx := fingerprint(t, v.spec, v.cfg, v.migrate, false)
			if lin != idx {
				t.Fatalf("sharded city diverged between linear scan and spatial index:\n--- linear ---\n%s\n--- indexed ---\n%s", lin, idx)
			}
		})
	}
}
