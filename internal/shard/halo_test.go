package shard

import (
	"bytes"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"spider/internal/geo"
	"spider/internal/mac"
	"spider/internal/scenario"
	"spider/internal/wifi"
)

// TestHaloRecordCompact pins the halo record's footprint: at most eight
// bytes and no pointer anywhere in it, so the buffers that hold every
// boundary beacon of an epoch stay small and the GC never scans them.
func TestHaloRecordCompact(t *testing.T) {
	if n := unsafe.Sizeof(haloRec{}); n > 8 {
		t.Errorf("haloRec is %d bytes, want at most 8", n)
	}
	if path := pointerPath(reflect.TypeOf(haloRec{}), "haloRec"); path != "" {
		t.Errorf("haloRec holds a pointer-bearing field at %s", path)
	}
}

// TestSameBeaconIsWireEquality pins sameBeacon to the wire encoding: a
// beacon with any one exported field of its frame or beacon body changed
// is sameBeacon with the original exactly when the two encode to the
// same bytes. A field added to either struct and written by Encode but
// not compared fails here.
func TestSameBeaconIsWireEquality(t *testing.T) {
	adv := mac.Advert{Addr: wifi.NewAddr(0xA0, 3), SSID: "ap-3", Channel: 6, BackhaulKbps: 2000}
	var want wifi.Frame
	var wantBody wifi.BeaconBody
	adv.Fill(&want, &wantBody, wifi.TypeBeacon, wifi.Broadcast, 41)
	check := func(name string, edit func(f *wifi.Frame, b *wifi.BeaconBody) reflect.Value) {
		f, b := want, wantBody
		f.Body = &b
		if edit != nil {
			v := edit(&f, &b)
			switch v.Kind() {
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Array:
				v.Index(0).SetUint(v.Index(0).Uint() ^ 1)
			default:
				t.Fatalf("%s: no edit for a %v field", name, v.Kind())
			}
		}
		if same, wire := sameBeacon(&f, &want), bytes.Equal(f.Encode(), want.Encode()); same != wire {
			t.Errorf("%s: sameBeacon %v, encodings equal %v", name, same, wire)
		}
	}
	check("unedited", nil)
	for _, ft := range reflect.VisibleFields(reflect.TypeOf(wifi.Frame{})) {
		if ft.IsExported() && ft.Name != "Body" {
			check("Frame."+ft.Name, func(f *wifi.Frame, _ *wifi.BeaconBody) reflect.Value {
				return reflect.ValueOf(f).Elem().FieldByIndex(ft.Index)
			})
		}
	}
	for _, ft := range reflect.VisibleFields(reflect.TypeOf(wifi.BeaconBody{})) {
		if ft.IsExported() {
			check("BeaconBody."+ft.Name, func(_ *wifi.Frame, b *wifi.BeaconBody) reflect.Value {
				return reflect.ValueOf(b).Elem().FieldByIndex(ft.Index)
			})
		}
	}
}

// pointerPath returns the path of the first part of a value of type typ
// that holds a pointer (a pointer, string, slice, map, channel,
// function or interface), or "" if none does.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if typ.Len() == 0 {
			return ""
		}
		return pointerPath(typ.Elem(), path+"[0]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	default:
		return path
	}
}

// TestHaloMemoryBounded is the halo layer's leak check: on an APs-only
// city every epoch captures about the same beacons, so the records the
// halo buffers retain must not grow with run length, and the bytes they
// retain must stay within two plan-sized buffers of 8-byte records.
// (Mirror bodies once lived on tile-local free lists that were popped by
// the capturing tile and pushed by the receiving one; the lists grew
// without bound.)
func TestHaloMemoryBounded(t *testing.T) {
	spec := scenario.CityGrid(1, 2000, 0)
	spec.AreaW, spec.AreaH = 6000, 6000
	c := NewCity(spec, testCfg(), 0)
	if c.Layout.NTiles < 4 {
		t.Fatalf("fixture expects a tiled city, layout %v", c.Layout)
	}
	planned := 0
	for _, tile := range c.Tiles {
		planned += tile.haloCap
	}
	retained := func() (n int) {
		for _, tile := range c.Tiles {
			n += cap(tile.halo[0]) + cap(tile.halo[1])
		}
		return n
	}
	size := int(unsafe.Sizeof(haloRec{}))
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
	t.Logf("halo records retained: %d (%d bytes) at 20 s, %d (%d bytes) at 80 s; %d records planned per epoch (%v)",
		at20, at20*size, at80, at80*size, planned, c.Layout)
	if at80 > at20 {
		t.Fatalf("halo buffers grew from %d records at 20 s to %d at 80 s", at20, at80)
	}
	if budget := 2 * planned * 8; at80*size > budget {
		t.Fatalf("halo buffers retain %d bytes at 80 s, budget %d (two buffers of %d 8-byte records)",
			at80*size, budget, planned)
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

// TestHaloMirrorsMatchSourceBeacons is the mirror oracle: a record
// names its AP and sequence number only, and the frame every neighbour
// injects is rebuilt from it. On a quick tiled city with clients, a tap
// on every tile's medium keeps each beacon's wire bytes as it leaves the
// air; at each of several barriers, every frame in every tile's exported
// inbox must be, byte for byte, a beacon the tile owning its AP sent in
// the epoch just ended, on that beacon's channel, at that AP's position.
func TestHaloMirrorsMatchSourceBeacons(t *testing.T) {
	c := quickCity.build(1, 0)
	if c.Layout.NTiles != quickCity.tiles {
		t.Fatalf("fixture expects %d tiles, layout %v", quickCity.tiles, c.Layout)
	}
	type key struct {
		sa  wifi.Addr
		seq uint16
	}
	type sent struct {
		frame []byte
		ch    int
	}
	type ap struct {
		tile int
		pos  geo.Point
	}
	aps := map[wifi.Addr]ap{}
	seen := make([]map[key]sent, len(c.Tiles))
	for i, tile := range c.Tiles {
		for _, node := range tile.World.APs {
			aps[node.AP.Addr()] = ap{i, node.Spec.Pos}
		}
		tile.World.Medium.SetTap(func(f *wifi.Frame, ch int, _ time.Duration) {
			if f.Type == wifi.TypeBeacon && f.DA.IsBroadcast() {
				seen[i][key{f.SA, f.Seq}] = sent{f.Encode(), ch}
			}
		})
	}
	// The clients join within the first virtual second; the barriers
	// checked span it and the cruise after it.
	mirrors := 0
	for epoch := 1; c.Now() < 6*time.Second; epoch++ {
		for i := range seen {
			seen[i] = map[key]sent{}
		}
		if err := c.Run(c.Now() + c.Layout.Epoch); err != nil {
			t.Fatal(err)
		}
		st, err := c.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for dst, ts := range st.Tiles {
			for k, hs := range ts.Inbox {
				f, err := wifi.Decode(hs.Frame)
				if err != nil {
					t.Fatalf("%v: tile %d inbox frame %d: %v", c.Now(), dst, k, err)
				}
				src, ok := aps[f.SA]
				if !ok {
					t.Fatalf("%v: tile %d inbox frame %d is from %v, which no tile holds", c.Now(), dst, k, f.SA)
				}
				want, ok := seen[src.tile][key{f.SA, f.Seq}]
				switch {
				case !ok:
					t.Fatalf("%v: tile %d inbox frame %d (%v): tile %d sent no such beacon last epoch", c.Now(), dst, k, f, src.tile)
				case !bytes.Equal(hs.Frame, want.frame):
					t.Fatalf("%v: tile %d inbox frame %d\n got %x\nwant %x (as tile %d sent it)", c.Now(), dst, k, hs.Frame, want.frame, src.tile)
				case hs.Ch != want.ch:
					t.Fatalf("%v: tile %d inbox frame %d (%v) on channel %d, sent on %d", c.Now(), dst, k, f, hs.Ch, want.ch)
				case hs.Pos != src.pos:
					t.Fatalf("%v: tile %d inbox frame %d (%v) at %v, its AP at %v", c.Now(), dst, k, f, hs.Pos, src.pos)
				}
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%v: no mirror pending at barrier %d — fixture exercises nothing", c.Now(), epoch)
		}
		mirrors += n
	}
	t.Logf("%d mirrors checked over %v (%v)", mirrors, c.Now(), c.Layout)
}
