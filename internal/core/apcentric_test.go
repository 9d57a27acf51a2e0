package core

import (
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/wifi"
)

// apSliceActive reports which BSSID the slicer currently serves (zero
// Addr if slicing is idle).
func apSliceActive(d *Driver) wifi.Addr {
	ch := d.radio.Channel()
	var connected []*Iface
	for _, ifc := range d.Interfaces() {
		if ifc.Channel() == ch && ifc.Connected() {
			connected = append(connected, ifc)
		}
	}
	if len(connected) < 2 {
		return wifi.Addr{}
	}
	return connected[d.sc.APSliceIdx%len(connected)].BSSID()
}

func TestAPCentricSlicerRotatesPSM(t *testing.T) {
	w := newWorld(41, 0)
	ap1 := w.addAP(1, "a", 6, geo.Point{X: 15})
	ap2 := w.addAP(2, "a", 6, geo.Point{X: 25})
	cfg := SpiderDefaults(SingleChannelMultiAP, []ChannelSlice{{Channel: 6}})
	cfg.APCentric = true
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 2 {
		t.Fatalf("connected %d (stats %+v)", d.ConnectedCount(), d.Stats())
	}
	// At any instant exactly one AP is active: the other believes the
	// client sleeps. Sample a few slice boundaries.
	me := d.Addr()
	sawActive := map[bool]bool{}
	for i := 0; i < 8; i++ {
		w.k.Run(w.k.Now() + 100*time.Millisecond)
		p1, p2 := apEntry(t, ap1, me).PSM, apEntry(t, ap2, me).PSM
		if p1 && p2 {
			t.Fatalf("both APs in PSM at %v — nobody served", w.k.Now())
		}
		if !p1 && !p2 {
			continue // transition instant; allowed briefly
		}
		sawActive[p1] = true
	}
	if len(sawActive) != 2 {
		t.Fatalf("slicer never rotated the active AP: %v", sawActive)
	}
	active := apSliceActive(d)
	if active != ap1.Addr() && active != ap2.Addr() {
		t.Fatalf("active BSSID %v unknown", active)
	}
}

func TestAPCentricSingleAPStaysAwake(t *testing.T) {
	w := newWorld(42, 0)
	ap := w.addAP(1, "a", 6, geo.Point{X: 15})
	cfg := SpiderDefaults(SingleChannelMultiAP, []ChannelSlice{{Channel: 6}})
	cfg.APCentric = true
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(20 * time.Second)
	if d.ConnectedCount() != 1 {
		t.Fatalf("not connected (stats %+v)", d.Stats())
	}
	if apEntry(t, ap, d.Addr()).PSM {
		t.Fatal("lone AP left in PSM by the slicer")
	}
	if apSliceActive(d) != [6]byte{} {
		t.Fatal("active BSSID should be zero with one AP")
	}
}
