package checkpoint

import (
	"bytes"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/shard"
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
