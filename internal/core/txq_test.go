package core

import (
	"reflect"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/wifi"
)

// txqSeqs reads each channel's queued sequence numbers out of a driver
// checkpoint, decoding the wire frames, so the test sees what a restore
// would see.
func txqSeqs(t *testing.T, st DriverState) map[int][]uint16 {
	t.Helper()
	out := map[int][]uint16{}
	prev := 0
	for _, qs := range st.TxQ {
		if qs.Ch <= prev {
			t.Fatalf("TxQ not ascending by channel: %d after %d", qs.Ch, prev)
		}
		prev = qs.Ch
		for _, b := range qs.Frames {
			f, err := wifi.Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			out[qs.Ch] = append(out[qs.Ch], f.Seq)
		}
	}
	return out
}

// The driver keeps one transmit queue for every channel. Frames for
// channels 11, 1 and 6, interleaved, must behave as three queues: each
// channel capped at the policy's txQueueFrames on its own, drained in its own order,
// purged of a torn-down interface's frames only, and checkpointed as one
// group per channel, ascending.
func TestTxQueueSharedAcrossChannels(t *testing.T) {
	build := func() (*world, *Driver) {
		w := newWorld(41, 0)
		cfg := singleChannelCfg(SingleChannelMultiAP, 1)
		pol := policyFor(cfg.Mode)
		pol.txQueueFrames = 3
		return w, w.addDriverPolicy(cfg, pol, geo.Static{})
	}
	w, d := build()
	apA, apB, apC, apD := wifi.NewAddr(0, 11), wifi.NewAddr(0, 1), wifi.NewAddr(0, 6), wifi.NewAddr(0, 12)
	d.sc.Switching = true // off the air: every frame queues
	for i, q := range []struct {
		ch int
		da wifi.Addr
	}{
		{11, apA}, {1, apB}, {6, apC}, {11, apD}, {1, apB}, {11, apA},
		{11, apA}, // seq 7: channel 11 is full
		{6, apC}, {1, apB},
		{1, apB}, // seq 10: channel 1 is full
		{6, apC},
	} {
		d.transmit(q.ch, &wifi.Frame{Type: wifi.TypeData, SA: d.Addr(), DA: q.da, BSSID: q.da,
			Seq: uint16(i + 1), Body: &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 10}})
	}
	if got := d.Stats().TxQueueDrops; got != 2 {
		t.Fatalf("TxQueueDrops = %d, want 2", got)
	}
	st := d.ExportState()
	want := map[int][]uint16{1: {2, 5, 9}, 6: {3, 8, 11}, 11: {1, 4, 6}}
	if got := txqSeqs(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("queued = %v, want %v", got, want)
	}

	// Export → restore → export is the identity.
	w2, d2 := build()
	w2.k.BeginRestore(w.k.Now(), w.k.NextSeq(), w.k.Fired())
	if err := d2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got := d2.ExportState(); !reflect.DeepEqual(got.TxQ, st.TxQ) {
		t.Fatalf("re-exported TxQ differs:\n got %v\nwant %v", txqSeqs(t, got), txqSeqs(t, st))
	}

	// Tearing down the interface to apA purges its two frames on 11 and
	// nothing else.
	ifc := d.newIface(&APRecord{BSSID: apA, Channel: 11})
	ifc.sc.State = IfaceJoining
	d.ifaces[apA] = ifc
	d.teardown(ifc)
	if got := d.Stats().TeardownPurged; got != 2 {
		t.Fatalf("TeardownPurged = %d, want 2", got)
	}
	want = map[int][]uint16{1: {2, 5, 9}, 6: {3, 8, 11}, 11: {4}}
	if got := txqSeqs(t, d.ExportState()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after purge = %v, want %v", got, want)
	}

	// Draining channel 1 sends its frames in queue order and leaves the
	// other channels' frames queued.
	var sent []uint16
	seen := map[uint16]bool{}
	w.m.SetTxObserver(func(f *wifi.Frame, _ int, _ time.Duration, _ geo.Point) {
		if f.SA == d.Addr() && f.Type == wifi.TypeData && !seen[f.Seq] {
			seen[f.Seq] = true
			sent = append(sent, f.Seq)
		}
	})
	d.sc.Switching = false
	d.drainTxQueue(1)
	w.k.Run(w.k.Now() + time.Second)
	if !reflect.DeepEqual(sent, []uint16{2, 5, 9}) {
		t.Fatalf("drained channel 1 as %v, want [2 5 9]", sent)
	}
	want = map[int][]uint16{6: {3, 8, 11}, 11: {4}}
	if got := txqSeqs(t, d.ExportState()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after drain = %v, want %v", got, want)
	}
}

// Interfaces for a fresh join and for a checkpoint restore are both
// built by newIface, which must hand the joiner the medium's frame
// pool: its auth requests are pool-owned, and fresh allocations under
// NoPool.
func TestNewIfaceJoinerDrawsFromPool(t *testing.T) {
	for _, noPool := range []bool{false, true} {
		w := newWorld(42, 0)
		if noPool {
			w.m = radio.NewMedium(w.k, radio.Config{Range: 100, EdgeStart: 1, DataRetryLimit: 6, NoPool: true})
		}
		d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 1), geo.Static{})
		ap := wifi.NewAddr(0, 6)
		ifc := d.newIface(&APRecord{BSSID: ap, Channel: 6, SSID: "a"})
		d.ifaces[ap] = ifc
		ifc.joiner.Start() // the radio is on channel 1: the request queues
		if len(d.txq) != 1 || d.txq[0].f.Type != wifi.TypeAuthReq {
			t.Fatalf("NoPool=%v: queued %v, want one auth request", noPool, d.txq)
		}
		if got := d.txq[0].f.PoolOwned(); got == noPool {
			t.Fatalf("NoPool=%v: auth request pool-owned = %v", noPool, got)
		}
	}
}
