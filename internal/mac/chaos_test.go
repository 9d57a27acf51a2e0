package mac

import (
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// TestAPCrashDropsStateAndSilencesRadio: a crashed AP forgets its
// clients, stops answering, and a restart brings it back clean.
func TestAPCrashDropsStateAndSilencesRadio(t *testing.T) {
	k, _, ap, c := setup(t)
	c.joiner.Start()
	k.Run(2 * time.Second)
	if c.assocRes == nil || !c.assocRes.Success {
		t.Fatalf("client failed to associate: %+v", c.assocRes)
	}
	if !entry(ap, c.radio.Addr()).sc.Associated {
		t.Fatal("AP does not know the associated client")
	}

	ap.Crash()
	if !ap.Down() || entry(ap, c.radio.Addr()).sc.Associated {
		t.Fatalf("crash left state behind: down=%v assoc=%v", ap.Down(), entry(ap, c.radio.Addr()).sc.Associated)
	}
	// Probes into a crashed AP go unanswered.
	before := len(c.frames)
	c.radio.Send(&wifi.Frame{Type: wifi.TypeProbeReq, SA: c.radio.Addr(),
		DA: wifi.Broadcast, Seq: 1, Body: &wifi.ProbeReqBody{SSID: ap.cfg.SSID}})
	k.Run(k.Now() + time.Second)
	if got := len(c.frames) - before; got != 0 {
		t.Fatalf("crashed AP answered %d frames", got)
	}

	ap.Restart()
	if ap.Down() {
		t.Fatal("restart left the AP down")
	}
	c.assocRes = nil
	c.joiner.Start()
	k.Run(k.Now() + 2*time.Second)
	if c.assocRes == nil || !c.assocRes.Success {
		t.Fatalf("re-association after restart failed: %+v", c.assocRes)
	}
}

// TestAPDeauthsStrangerData: data from a client the AP no longer knows
// (e.g. it rebooted) draws a class-3 Deauth so the client tears down
// instead of black-holing traffic on a zombie association.
func TestAPDeauthsStrangerData(t *testing.T) {
	k, _, ap, c := setup(t)
	c.joiner.Start()
	k.Run(2 * time.Second)
	if c.assocRes == nil || !c.assocRes.Success {
		t.Fatalf("associate failed: %+v", c.assocRes)
	}
	ap.Crash()
	ap.Restart()
	before := len(c.frames)
	c.radio.Send(&wifi.Frame{Type: wifi.TypeData, SA: c.radio.Addr(), DA: ap.Addr(),
		BSSID: ap.Addr(), Seq: 9, Body: &wifi.DataBody{Proto: wifi.ProtoTCP, VirtualLen: 100}})
	k.Run(k.Now() + time.Second)
	var deauth *wifi.Frame
	for _, f := range c.frames[before:] {
		if f.Type == wifi.TypeDeauth {
			deauth = f
		}
	}
	if deauth == nil {
		t.Fatal("rebooted AP did not deauth the zombie client")
	}
}

// TestBeaconMuteSuppressesBeaconsOnly: a silenced AP stops beaconing
// but still answers probes — the "AP alive but invisible" pathology,
// distinct from a crash.
func TestBeaconMuteSuppressesBeaconsOnly(t *testing.T) {
	k := sim.NewKernel(1)
	m := losslessMedium(k)
	cfg := quietAPConfig("muted", 6)
	cfg.BeaconInterval = 100 * time.Millisecond
	ap := NewAPAt(m, cfg, wifi.NewAddr(0, 1), geo.Point{}, 1)
	c := newTestClient(k, m, wifi.NewAddr(1, 1), geo.Point{X: 20}, ap,
		ReducedJoinConfig(), dhcp.ReducedClientConfig(200*time.Millisecond))

	beacons := func() int {
		n := 0
		for _, f := range c.frames {
			if f.Type == wifi.TypeBeacon {
				n++
			}
		}
		return n
	}
	k.Run(time.Second)
	base := beacons()
	if base == 0 {
		t.Fatal("AP never beaconed")
	}
	ap.SetBeaconMute(true)
	// Drain any beacon already on the air, then expect full silence.
	k.Run(k.Now() + 200*time.Millisecond)
	base = beacons()
	k.Run(k.Now() + time.Second)
	if got := beacons(); got != base {
		t.Fatalf("muted AP emitted %d beacons", got-base)
	}
	// Still answers probes while muted.
	before := len(c.frames)
	c.radio.Send(&wifi.Frame{Type: wifi.TypeProbeReq, SA: c.radio.Addr(),
		DA: wifi.Broadcast, Seq: 1, Body: &wifi.ProbeReqBody{SSID: ap.cfg.SSID}})
	k.Run(k.Now() + time.Second)
	probeResp := false
	for _, f := range c.frames[before:] {
		if f.Type == wifi.TypeProbeResp {
			probeResp = true
		}
	}
	if !probeResp {
		t.Fatal("muted AP stopped answering probes (mute must not be a crash)")
	}
	ap.SetBeaconMute(false)
	k.Run(k.Now() + time.Second)
	if got := beacons(); got <= base {
		t.Fatal("unmuted AP did not resume beaconing")
	}
}
