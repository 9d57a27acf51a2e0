package core

import (
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/wifi"
)

// Tests for the migration hooks the shard runtime relies on: Shutdown
// must leave a driver permanently silent with no timers re-arming, halo
// beacons must populate the scan table without becoming join candidates,
// and the AP-record handoff must round-trip history deterministically.

func TestShutdownSilencesDriver(t *testing.T) {
	w := newWorld(21, 0)
	w.addAP(1, "net", 1, geo.Point{X: 10})
	d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 1), geo.Static{P: geo.Point{}})
	w.k.Run(10 * time.Second)
	if len(w.connected) == 0 {
		t.Fatal("driver never connected; fixture broken")
	}
	d.Shutdown()
	if !d.stopped {
		t.Fatal("Stopped() false after Shutdown")
	}
	if got := len(d.Interfaces()); got != 0 {
		t.Fatalf("%d interfaces survived Shutdown", got)
	}
	if len(w.disconnected) == 0 {
		t.Fatal("the host heard no Disconnected for the connected interface")
	}
	if d.radio.Channel() != 0 {
		t.Fatalf("radio still tuned to %d after Shutdown", d.radio.Channel())
	}
	// From here on the driver must be inert: no probes, no joins, no
	// channel changes, even with the AP still beaconing next to it.
	statsAt := d.Stats()
	w.k.Run(60 * time.Second)
	if d.Stats() != statsAt {
		t.Fatalf("counters moved after Shutdown:\n before %+v\n after  %+v", statsAt, d.Stats())
	}
	if d.radio.Channel() != 0 {
		t.Fatal("radio re-tuned itself after Shutdown")
	}
	d.Shutdown() // idempotent
}

func TestShutdownDuringSwitchStaysDeaf(t *testing.T) {
	w := newWorld(22, 0)
	w.addAP(1, "net", 1, geo.Point{X: 10})
	cfg := SpiderDefaults(MultiChannelMultiAP, []ChannelSlice{
		{Channel: 1, Dwell: 100 * time.Millisecond},
		{Channel: 6, Dwell: 100 * time.Millisecond},
	})
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	// Stop exactly at a slice boundary, when a switch is mid-flight.
	w.k.At(100*time.Millisecond+time.Millisecond, func() { d.Shutdown() })
	w.k.Run(5 * time.Second)
	if d.radio.Channel() != 0 {
		t.Fatalf("retune completed onto ch %d after Shutdown", d.radio.Channel())
	}
}

func TestHaloBeaconNotJoinable(t *testing.T) {
	w := newWorld(23, 0)
	d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 1), geo.Static{P: geo.Point{}})
	// A halo-mirrored beacon from an AP owned by a neighboring shard.
	ghost := wifi.NewAddr(0, 77)
	w.m.InjectFrame(&wifi.Frame{Type: wifi.TypeBeacon, SA: ghost, DA: wifi.Broadcast,
		BSSID: ghost, Halo: true, Body: &wifi.BeaconBody{SSID: "far", Channel: 1}},
		1, geo.Point{X: 20})
	w.k.Run(5 * time.Second)
	recs := d.KnownAPs()
	if len(recs) != 1 || !recs[0].Halo {
		t.Fatalf("halo beacon not recorded as halo: %+v", recs)
	}
	if len(d.Interfaces()) != 0 {
		t.Fatal("driver attempted to join a halo AP")
	}
	// A direct sighting of the same AP clears the halo mark and the AP
	// becomes joinable.
	w.addAP(77, "far", 1, geo.Point{X: 20})
	w.k.Run(20 * time.Second)
	if rec := d.KnownAPs()[0]; rec.Halo {
		t.Fatal("direct beacon did not clear the Halo mark")
	}
	if len(w.connected) == 0 {
		t.Fatal("driver never joined the AP after it became local")
	}
}

func TestAPRecordHandoffWarmsRejoin(t *testing.T) {
	w := newWorld(24, 0)
	w.addAP(1, "net", 1, geo.Point{X: 10})
	d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 1), geo.Static{P: geo.Point{}})
	w.k.Run(10 * time.Second)
	if len(w.connected) == 0 {
		t.Fatal("driver never connected")
	}
	recs := d.ExportAPRecords()
	if len(recs) != 1 || recs[0].Successes == 0 || recs[0].LeaseIP == 0 {
		t.Fatalf("export missing history: %+v", recs)
	}
	d.Shutdown()

	// The "destination shard": same AP world, fresh driver importing the
	// exported records — one local (AP present), one halo (AP absent).
	d2 := NewDriver(w.m, singleChannelCfg(SingleChannelMultiAP, 1), wifi.NewAddr(1, 2),
		geo.Static{P: geo.Point{}}, w)
	for _, rec := range recs {
		d2.ImportAPRecord(rec, false)
	}
	d2.ImportAPRecord(APRecord{BSSID: wifi.NewAddr(0, 99), SSID: "gone", Channel: 1,
		Successes: 3, Attempts: 3}, true)
	got := d2.ExportAPRecords()
	if len(got) != 2 {
		t.Fatalf("import lost records: %+v", got)
	}
	if got[0].BSSID != recs[0].BSSID || got[0].Halo || got[0].Successes != recs[0].Successes {
		t.Fatalf("local import mangled: %+v", got[0])
	}
	if !got[1].Halo {
		t.Fatal("absent AP not marked halo on import")
	}
	w.k.Run(w.k.Now() + 20*time.Second)
	if d2.Stats().JoinSuccesses == 0 {
		t.Fatal("imported history did not lead to a rejoin")
	}
	if d2.Stats().LeaseRevalidations == 0 {
		t.Fatal("rejoin ignored the imported cached lease")
	}
}
