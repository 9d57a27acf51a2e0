package checkpoint

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/shard"
	"spider/internal/wifi"
)

// buildCity2D is the checkpoint fixture stretched into a genuine 2-D
// tile grid, so the mirrors pending at a barrier cross row, column and
// corner edges.
func buildCity2D(seed int64, workers int) *shard.City {
	spec := testSpec(seed)
	spec.AreaW, spec.AreaH = 1200, 800
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	c := shard.NewCity(spec, cfg, workers)
	c.EnableObs(0)
	return c
}

// TestPendingMirrorsRoundTrip: a checkpoint cut while halo mirrors await
// injection must re-export byte-identically after a restore (the inbox
// is derived from the source tiles' records on export and regrouped
// into them on restore), and the resumed run must write the archive of
// the uninterrupted run.
func TestPendingMirrorsRoundTrip(t *testing.T) {
	const (
		seed  = 2
		cut   = 9 * time.Second
		until = 20 * time.Second
	)
	ref := buildCity2D(seed, 2)
	if err := ref.Run(until); err != nil {
		t.Fatal(err)
	}
	want := archiveBytes(t, ref, seed, "", until)

	victim := buildCity2D(seed, 2)
	if victim.Layout.Nx < 2 || victim.Layout.Ny < 2 {
		t.Fatalf("fixture expects a 2-D grid, layout %v", victim.Layout)
	}
	if err := victim.Run(cut); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(victim, seed, "fp")
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(ck)
	pending, sources := 0, map[int]bool{}
	for _, ts := range ck.City.Tiles {
		pending += len(ts.Inbox)
		for _, hs := range ts.Inbox {
			sources[victim.Layout.TileOf(hs.Pos)] = true
		}
	}
	if pending == 0 || len(sources) < 3 {
		t.Fatalf("fixture is dead: %d pending mirrors from %d source tiles at %v", pending, len(sources), cut)
	}

	loaded, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	resumed := buildCity2D(seed, 2)
	if err := loaded.Apply(resumed, seed, "fp"); err != nil {
		t.Fatal(err)
	}
	again, err := Capture(resumed, seed, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(again), enc) {
		t.Fatal("export → restore → export changed the checkpoint bytes")
	}
	if err := resumed.Run(until); err != nil {
		t.Fatal(err)
	}
	if got := archiveBytes(t, resumed, seed, "", until); !bytes.Equal(got, want) {
		t.Fatal("resumed archive differs from the uninterrupted run")
	}
}

// TestRestoreRejectsMisroutedMirror: an inbox frame whose position lies
// in a tile that is not a neighbour of the inbox's tile — its own tile,
// or one two columns or rows away — or that is addressed to another
// tile is a corrupt checkpoint, refused with an error.
func TestRestoreRejectsMisroutedMirror(t *testing.T) {
	const seed = 2
	victim := buildCity2D(seed, 1)
	if err := victim.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(victim, seed, "fp")
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(ck)
	lay := victim.Layout
	center := func(ix, iy int) geo.Point {
		return geo.Point{X: (lay.XBounds[ix] + lay.XBounds[ix+1]) / 2, Y: (lay.YBounds[iy] + lay.YBounds[iy+1]) / 2}
	}
	tile := -1
	for i, ts := range ck.City.Tiles {
		if len(ts.Inbox) > 0 {
			tile = i
			break
		}
	}
	if tile < 0 {
		t.Fatal("fixture is dead: no pending mirrors")
	}
	ix, iy := tile%lay.Nx, tile/lay.Nx
	bad := map[string]geo.Point{"own tile": center(ix, iy)}
	for jy := 0; jy < lay.Ny; jy++ {
		for jx := 0; jx < lay.Nx; jx++ {
			if jx-ix > 1 || ix-jx > 1 || jy-iy > 1 || iy-jy > 1 {
				bad["distant tile"] = center(jx, jy)
			}
		}
	}
	if len(bad) < 2 {
		t.Fatalf("fixture grid %v has no tile two steps from tile %d", lay, tile)
	}
	for name, pos := range bad {
		edited, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		edited.City.Tiles[tile].Inbox[0].Pos = pos
		if err := edited.Apply(buildCity2D(seed, 1), seed, "fp"); err == nil {
			t.Fatalf("%s: restore accepted an inbox frame from tile %d into tile %d", name, lay.TileOf(pos), tile)
		}
	}
	edited, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	edited.City.Tiles[tile].Inbox[0].Dst = tile + 1
	if err := edited.Apply(buildCity2D(seed, 1), seed, "fp"); err == nil {
		t.Fatalf("restore accepted a frame addressed to tile %d in tile %d's inbox", tile+1, tile)
	}
}

// TestRestoreRefusesForeignBeacon: the city keeps a pending mirror as
// its AP and sequence number only, so an inbox frame that is not
// exactly its AP's beacon on its AP's channel — its SSID or advertised
// backhaul edited, its SA naming no planned AP, or its Ch another valid
// channel — is a corrupt checkpoint, refused with an error naming the
// tile and the frame.
func TestRestoreRefusesForeignBeacon(t *testing.T) {
	const seed = 2
	victim := buildCity2D(seed, 1)
	if err := victim.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(victim, seed, "fp")
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(ck)
	tile := firstInbox(&ck.City)
	if tile < 0 {
		t.Fatal("fixture is dead: no pending mirrors")
	}
	noAP := wifi.NewAddr(0xA0, uint32(len(victim.Plan.APs)+1))
	for _, tc := range []struct {
		name string
		edit func(hs *shard.HaloFrameState)
	}{
		{"ssid", editBeacon(t, func(_ *wifi.Frame, b *wifi.BeaconBody) { b.SSID += "-evil" })},
		{"backhaul", editBeacon(t, func(_ *wifi.Frame, b *wifi.BeaconBody) { b.BackhaulKbps++ })},
		{"unplanned SA", editBeacon(t, func(f *wifi.Frame, _ *wifi.BeaconBody) { f.SA = noAP })},
		{"other channel", func(hs *shard.HaloFrameState) { hs.Ch = otherChannel(hs.Ch) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edited, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&edited.City.Tiles[tile].Inbox[0])
			prefix := fmt.Sprintf("shard: tile %d inbox frame 0: ", tile)
			err = edited.Apply(buildCity2D(seed, 1), seed, "fp")
			if err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("Apply returned %v, want an error starting %q", err, prefix)
			}
			t.Log(err)
		})
	}
}

// TestRestoreRefusesForeignRadioBeacon: a restored world must put no
// broadcast beacon on the air but its APs' own, since the halo can only
// mirror those. A boundary AP's radio tuned to another valid channel, a
// queued copy of its beacon that is retried, edited or on another
// channel, a beacon queued on a client's radio, in an AP's PSM buffer or
// in a driver's queue: each is refused with an error naming the tile.
// The AP's own beacon queued unedited is accepted and runs on.
func TestRestoreRefusesForeignRadioBeacon(t *testing.T) {
	const seed = 2
	victim := buildCity2D(seed, 1)
	if err := victim.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(victim, seed, "fp")
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(ck)
	src, k := boundaryAPRadio(t, &ck.City, victim.Layout)
	beacon := ck.City.Tiles[firstInbox(&ck.City)].Inbox[0]
	ct, cl := firstTableClient(&ck.City)
	if ct < 0 {
		t.Fatal("fixture is dead: no client")
	}
	at, ac := -1, -1
	for i, ts := range ck.City.Tiles {
		for j, ap := range ts.World.APs {
			if at < 0 && len(ap.AP.Client) > 0 {
				at, ac = i, j
			}
		}
	}
	if at < 0 {
		t.Fatal("fixture is dead: no AP has a client")
	}
	queue := func(edit func(hs *shard.HaloFrameState), attempt int) func(st *shard.CityState) {
		return func(st *shard.CityState) {
			hs := beacon
			if edit != nil {
				edit(&hs)
			}
			r := &st.Tiles[src].World.Medium.Radios[k]
			r.Queue = append(r.Queue, radio.TxJobState{Frame: hs.Frame, Ch: hs.Ch, Attempt: attempt})
		}
	}
	for _, tc := range []struct {
		name string
		tile int
		edit func(st *shard.CityState)
	}{
		{"AP radio channel", src, func(st *shard.CityState) {
			r := &st.Tiles[src].World.Medium.Radios[k]
			r.Channel = otherChannel(r.Channel)
		}},
		{"queued beacon retried", src, queue(nil, 1)},
		{"queued beacon ssid", src, queue(editBeacon(t, func(_ *wifi.Frame, b *wifi.BeaconBody) { b.SSID += "-evil" }), 0)},
		{"queued beacon channel", src, queue(func(hs *shard.HaloFrameState) { hs.Ch = otherChannel(hs.Ch) }, 0)},
		{"client radio", ct, func(st *shard.CityState) {
			ms := &st.Tiles[ct].World.Medium
			addr := st.Tiles[ct].World.Clients[cl].Addr
			for j := range ms.Radios {
				if ms.Radios[j].Addr == addr {
					ms.Radios[j].Queue = append(ms.Radios[j].Queue, radio.TxJobState{Frame: beacon.Frame, Ch: beacon.Ch})
				}
			}
		}},
		{"PSM buffer", at, func(st *shard.CityState) {
			c := &st.Tiles[at].World.APs[ac].AP.Client[0]
			c.Buffer = append(c.Buffer, beacon.Frame)
		}},
		{"driver queue", ct, func(st *shard.CityState) {
			d := &st.Tiles[ct].World.Clients[cl].Driver
			d.TxQ = append(d.TxQ, core.TxQueueState{Ch: beacon.Ch, Frames: [][]byte{beacon.Frame}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edited, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&edited.City)
			prefix := fmt.Sprintf("shard: tile %d: ", tc.tile)
			err = edited.Apply(buildCity2D(seed, 1), seed, "fp")
			if err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("Apply returned %v, want an error starting %q", err, prefix)
			}
			t.Log(err)
		})
	}
	t.Run("own beacon", func(t *testing.T) {
		edited, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		queue(nil, 0)(&edited.City)
		c := buildCity2D(seed, 1)
		if err := edited.Apply(c, seed, "fp"); err != nil {
			t.Fatal(err)
		}
		if err := c.Run(c.Now() + c.Layout.Epoch); err != nil {
			t.Fatal(err)
		}
	})
}

// boundaryAPRadio returns the tile and the medium index of the radio of
// the AP that sent the first pending mirror in st.
func boundaryAPRadio(tb testing.TB, st *shard.CityState, lay shard.Layout) (tile, k int) {
	tb.Helper()
	i := firstInbox(st)
	if i < 0 {
		tb.Fatal("fixture is dead: no pending mirrors")
	}
	hs := st.Tiles[i].Inbox[0]
	f, err := wifi.Decode(hs.Frame)
	if err != nil {
		tb.Fatal(err)
	}
	tile = lay.TileOf(hs.Pos)
	for k, rs := range st.Tiles[tile].World.Medium.Radios {
		if rs.Addr == f.SA {
			return tile, k
		}
	}
	tb.Fatalf("tile %d has no radio %v", tile, f.SA)
	return 0, 0
}

// firstInbox returns the first tile of st with a pending mirror, or -1.
func firstInbox(st *shard.CityState) int {
	for i, ts := range st.Tiles {
		if len(ts.Inbox) > 0 {
			return i
		}
	}
	return -1
}

// editBeacon returns an edit that decodes an inbox frame, applies edit
// to the frame and its beacon body, and re-encodes it.
func editBeacon(t testing.TB, edit func(f *wifi.Frame, b *wifi.BeaconBody)) func(hs *shard.HaloFrameState) {
	return func(hs *shard.HaloFrameState) {
		f, err := wifi.Decode(hs.Frame)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := f.Body.(*wifi.BeaconBody)
		if !ok {
			t.Fatalf("inbox frame %v is not a beacon", f)
		}
		edit(f, b)
		hs.Frame = f.Encode()
	}
}

// otherChannel returns a valid channel other than ch.
func otherChannel(ch int) int {
	if ch == wifi.MinChannel {
		return ch + 1
	}
	return wifi.MinChannel
}

// TestWarmStartFixtureReexports: the committed fixture, applied onto a
// fresh city, captures back to its own bytes — header and halo inbox
// included.
func TestWarmStartFixtureReexports(t *testing.T) {
	ck, err := readWarmFixture()
	if err != nil {
		t.Fatalf("%v (regenerate with -regen-warmstart)", err)
	}
	c := warmCity()
	if err := ck.Apply(c, warmSeed, warmFP); err != nil {
		t.Fatal(err)
	}
	again, err := Capture(c, warmSeed, warmFP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(again), encode(ck)) {
		t.Fatal("the warm-start fixture does not re-export to its own bytes")
	}
	pending := 0
	for _, ts := range ck.City.Tiles {
		pending += len(ts.Inbox)
	}
	t.Logf("fixture carries %d pending mirrors", pending)
}
