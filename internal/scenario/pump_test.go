package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/mac"
	"spider/internal/radio"
	"spider/internal/wifi"
)

// pumpSTA is the station pumpWorld's AP serves.
var pumpSTA = wifi.NewAddr(9, 1)

// heard is what the station saw of one downlink frame: its sequence
// number and, at that instant, the AP's view of the station's entry.
type heard struct {
	seq           uint16
	txBusy        bool
	downDelivered uint64
}

// pumpWorld is one AP and, beside it, a bare station radio standing in
// for the AP's client. The test hands the AP the client's management
// frames directly (RadioReceive), so the client can leave while the AP
// has a downlink frame for it on the radio. Every data frame the
// station hears is logged with the AP's view at that instant.
func pumpWorld() (*World, *mac.AP, *[]heard) {
	w := NewWorld(3, labRadio())
	ap := w.AddAP(APSpec{Pos: geo.Point{}, Channel: 6}).AP
	log := new([]heard)
	sta := w.Medium.NewStaticRadio(pumpSTA, geo.Point{X: 5}, radio.ReceiverFunc(func(f *wifi.Frame) {
		if f.Type != wifi.TypeData || f.SA != ap.Addr() {
			return
		}
		h := heard{seq: f.Seq, downDelivered: ap.DownDelivered}
		st, err := ap.ExportState()
		if err != nil {
			panic(err)
		}
		for _, c := range st.Client {
			if c.Addr == pumpSTA {
				h.txBusy = c.TxBusy
			}
		}
		*log = append(*log, h)
	}))
	sta.SetChannel(6)
	w.Run(time.Second)
	return w, ap, log
}

// associate hands the AP an association request from pumpSTA.
func associate(ap *mac.AP) {
	ap.RadioReceive(&wifi.Frame{Type: wifi.TypeAssocReq, SA: pumpSTA, DA: ap.Addr(), BSSID: ap.Addr(),
		Body: &wifi.AssocReqBody{SSID: "open"}}) // the SSID pumpWorld's AP gets by default
}

// downlink queues n wired-side frames for pumpSTA.
func downlink(t *testing.T, ap *mac.AP, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !ap.Deliver(pumpSTA, &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 1000}) {
			t.Fatal("AP refused downlink for an associated client")
		}
	}
}

// pumpFrameQueued reports whether the AP's radio still holds a data
// frame for pumpSTA, and the tag it carries.
func pumpFrameQueued(t *testing.T, ws WorldState, ap *mac.AP) (radio.TxTag, bool) {
	t.Helper()
	for _, rs := range ws.Medium.Radios {
		if rs.Addr != ap.Addr() {
			continue
		}
		for _, js := range rs.Queue {
			f, err := wifi.Decode(js.Frame)
			if err != nil {
				t.Fatal(err)
			}
			if f.Type == wifi.TypeData && f.DA == pumpSTA {
				return js.Tag, true
			}
		}
	}
	return radio.TxTag{}, false
}

// restoreCopy rebuilds pumpWorld, rewinds it to w's state through an
// export, and requires the rebuilt world to re-export byte for byte. A
// refused restore is reported and yields a nil world.
func restoreCopy(t *testing.T, w *World) (*World, *mac.AP, *[]heard) {
	t.Helper()
	ws, err := w.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	b, bap, blog := pumpWorld()
	*blog = nil
	b.Kernel.BeginRestore(w.Kernel.Now(), w.Kernel.NextSeq(), w.Kernel.Fired())
	if err := b.RestoreState(ws); err != nil {
		t.Errorf("restore refused the export: %v", err)
		return nil, nil, nil
	}
	b.Kernel.RestoreRNGs(w.Kernel.ExportRNGs())
	again, err := b.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restored world re-exports different bytes")
	}
	return b, bap, blog
}

// TestPumpFrameOutlivesItsClient: the AP has a downlink frame for a
// client on the radio when it forgets the client, by deauth or by
// crashing. The world still exports, restores into a fresh build and
// re-exports byte for byte, and the frame's completion pumps none of
// the forgotten entry's pending frames, in the original world or the
// restored one.
func TestPumpFrameOutlivesItsClient(t *testing.T) {
	for _, tc := range []struct {
		name   string
		forget func(ap *mac.AP)
	}{
		{"deauth", func(ap *mac.AP) {
			ap.RadioReceive(&wifi.Frame{Type: wifi.TypeDeauth, SA: pumpSTA, DA: ap.Addr(), BSSID: ap.Addr(),
				Body: &wifi.DeauthBody{Reason: 3}})
		}},
		{"crash", func(ap *mac.AP) { ap.Crash() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, ap, _ := pumpWorld()
			associate(ap)
			downlink(t, ap, 3) // one committed, two pending
			tc.forget(ap)
			ws, err := w.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			tag, ok := pumpFrameQueued(t, ws, ap)
			if !ok {
				t.Fatal("fixture is dead: no pump frame on the radio when the client went")
			}
			if tag.Kind != radio.TagNone {
				t.Errorf("the forgotten client's frame still carries tag %+v", tag)
			}
			b, bap, _ := restoreCopy(t, w)
			for _, x := range []struct {
				name string
				w    *World
				ap   *mac.AP
			}{{"original", w, ap}, {"restored", b, bap}} {
				if x.w == nil {
					continue
				}
				x.w.Run(x.w.Kernel.Now() + time.Second)
				if x.ap.DownDelivered != 1 {
					t.Errorf("%s: AP committed %d downlink frames, want 1: the forgotten entry's pending frames were pumped",
						x.name, x.ap.DownDelivered)
				}
			}
			if b != nil && worldSignature(b) != worldSignature(w) {
				t.Error("restored world diverged from the original")
			}
		})
	}
}

// TestStalePumpFrameSparesReassociation: the client deauths while its
// frame is on the radio and re-associates before that frame completes.
// The stale completion must not clear the new entry's TxBusy: when the
// station hears the new entry's first frame, that frame is still the
// entry's one committed frame. It holds in the original world and in
// one restored from an export taken with both frames queued.
func TestStalePumpFrameSparesReassociation(t *testing.T) {
	w, ap, log := pumpWorld()
	associate(ap)
	downlink(t, ap, 1)
	ap.RadioReceive(&wifi.Frame{Type: wifi.TypeDeauth, SA: pumpSTA, DA: ap.Addr(), BSSID: ap.Addr(),
		Body: &wifi.DeauthBody{Reason: 3}})
	associate(ap)
	downlink(t, ap, 2) // the new entry: one committed, one pending
	*log = nil
	b, bap, blog := restoreCopy(t, w)
	for _, x := range []struct {
		name string
		w    *World
		ap   *mac.AP
		log  *[]heard
	}{{"original", w, ap, log}, {"restored", b, bap, blog}} {
		if x.w == nil {
			continue
		}
		x.w.Run(x.w.Kernel.Now() + time.Second)
		if len(*x.log) < 2 {
			t.Fatalf("%s: station heard %d downlink frames, want the stale one and the new entry's", x.name, len(*x.log))
		}
		// The first frame heard is the stale one; the first heard after it
		// is the new entry's first (retries repeat a sequence number).
		stale := (*x.log)[0].seq
		for _, h := range *x.log {
			if h.seq == stale {
				continue
			}
			if !h.txBusy || h.downDelivered != 2 {
				t.Errorf("%s: at the new entry's first frame TxBusy=%v with %d frames committed, want true with 2",
					x.name, h.txBusy, h.downDelivered)
			}
			break
		}
	}
}
