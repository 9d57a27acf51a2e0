package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spider/internal/archive"
	"spider/internal/core"
	"spider/internal/dhcp"
	"spider/internal/fault"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/shard"
	"spider/internal/wifi"
)

func testSpec(seed int64) scenario.CityGridSpec {
	spec := scenario.CityGrid(seed, 40, 10)
	spec.AreaW = 1600
	spec.AreaH = 400
	spec.BlockMinM = 100
	spec.BlockMaxM = 300
	spec.SpeedMS = 20
	spec.Radio = radio.Defaults()
	spec.Radio.DataRateKbps = 24_000
	return spec
}

func buildCity(seed int64, workers int, chaos bool) *shard.City {
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	c := shard.NewCity(testSpec(seed), cfg, workers)
	c.EnableObs(0)
	if chaos {
		c.ApplyChaos(fault.Aggressive())
	}
	return c
}

// archiveBytes renders the run's archive — the regression currency the
// crash harness compares byte-for-byte.
func archiveBytes(t *testing.T, c *shard.City, seed int64, chaos string, dur time.Duration) []byte {
	t.Helper()
	a := archive.New(seed, "checkpoint-test")
	expID := archive.SubID(a.RunID, "experiment/citygrid", 0)
	a.Experiments = append(a.Experiments, archive.CityExperiment(expID, "citygrid", chaos, c, dur))
	return a.Encode()
}

// TestCrashResumeArchiveIdentity is the crash-injection harness: runs
// are killed at a randomized barrier epoch, checkpointed through the
// full file codec, resumed in a fresh city, and the final archive must
// be byte-identical to the uninterrupted run's — across seeds × worker
// counts × clean/chaos.
func TestCrashResumeArchiveIdentity(t *testing.T) {
	const until = 21 * time.Second
	for _, chaos := range []bool{false, true} {
		for _, tc := range []struct {
			seed    int64
			workers int
		}{{1, 1}, {2, 4}} {
			tc, chaos := tc, chaos
			name := fmt.Sprintf("seed%d/workers%d/chaos=%v", tc.seed, tc.workers, chaos)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				chaosName := ""
				if chaos {
					chaosName = "aggressive"
				}
				ref := buildCity(tc.seed, tc.workers, chaos)
				if err := ref.Run(until); err != nil {
					t.Fatal(err)
				}
				want := archiveBytes(t, ref, tc.seed, chaosName, until)

				// Kill at a randomized epoch (deterministic per subtest).
				epoch := ref.Layout.Epoch
				maxEpochs := int(until / epoch)
				cutEpoch := 1 + rand.New(rand.NewSource(tc.seed*31+int64(tc.workers))).Intn(maxEpochs-1)
				cut := time.Duration(cutEpoch) * epoch

				victim := buildCity(tc.seed, tc.workers, chaos)
				if err := victim.Run(cut); err != nil {
					t.Fatal(err)
				}
				ck, err := Capture(victim, tc.seed, "fp")
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(t.TempDir(), "run.ckpt")
				if err := WriteFile(path, ck); err != nil {
					t.Fatal(err)
				}
				// The victim "dies" here; resume goes through the file.
				loaded, err := ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				resumed := buildCity(tc.seed, tc.workers, chaos)
				if err := loaded.Apply(resumed, tc.seed, "fp"); err != nil {
					t.Fatal(err)
				}
				if resumed.Now() != cut {
					t.Fatalf("resumed at %v, want %v", resumed.Now(), cut)
				}
				if err := resumed.Run(until); err != nil {
					t.Fatal(err)
				}
				got := archiveBytes(t, resumed, tc.seed, chaosName, until)
				if !bytes.Equal(got, want) {
					t.Fatalf("killed at epoch %d (%v): resumed archive differs from uninterrupted run", cutEpoch, cut)
				}
			})
		}
	}
}

// staggeredCity is a staggered-admission city: the geometry of
// spider-sim's -join-spread 20s -join-ramp exp digest run, so clients
// are still joining at most barriers.
func staggeredCity() *shard.City {
	spec := scenario.CityGrid(5, 80, 24)
	spec.AreaW, spec.AreaH = 2400, 1600
	spec.JoinSpread, spec.JoinRamp = 20*time.Second, "exp"
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	c := shard.NewCity(spec, cfg, 2)
	c.EnableObs(0)
	return c
}

// TestResumeAtEveryBarrier: at every barrier of a run, the checkpoint
// restores into a fresh city that re-exports it byte for byte, and the
// run carries on in that city. After a restore at every barrier the
// final archive is the uninterrupted run's.
func TestResumeAtEveryBarrier(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		chaos string
		until time.Duration
		build func() *shard.City
	}{
		{"clean", 1, "", 21 * time.Second, func() *shard.City { return buildCity(1, 2, false) }},
		{"aggressive", 1, "aggressive", 21 * time.Second, func() *shard.City { return buildCity(1, 2, true) }},
		{"staggered", 5, "", time.Minute, staggeredCity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ref := tc.build()
			if err := ref.Run(tc.until); err != nil {
				t.Fatal(err)
			}
			want := archiveBytes(t, ref, tc.seed, tc.chaos, tc.until)

			c := tc.build()
			for c.Now() < tc.until {
				if err := c.Run(c.Now() + c.Layout.Epoch); err != nil {
					t.Fatal(err)
				}
				ck, err := Capture(c, tc.seed, "fp")
				if err != nil {
					t.Fatalf("capture at %v: %v", c.Now(), err)
				}
				enc := ck.Encode()
				loaded, err := Decode(enc)
				if err != nil {
					t.Fatal(err)
				}
				next := tc.build()
				if err := loaded.Apply(next, tc.seed, "fp"); err != nil {
					t.Fatalf("restore at %v: %v", c.Now(), err)
				}
				again, err := Capture(next, tc.seed, "fp")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Encode(), enc) {
					t.Fatalf("restored at %v: the city re-exports different bytes", c.Now())
				}
				c = next
			}
			if got := archiveBytes(t, c, tc.seed, tc.chaos, tc.until); !bytes.Equal(got, want) {
				t.Fatal("resumed at every barrier: archive differs from the uninterrupted run")
			}
		})
	}
}

// TestCodecByteStability: decode(encode) re-encodes to identical bytes,
// and a checkpoint taken twice at the same barrier is byte-identical.
func TestCodecByteStability(t *testing.T) {
	c := buildCity(1, 2, true)
	if err := c.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(c, 1, "fp")
	if err != nil {
		t.Fatal(err)
	}
	enc := ck.Encode()
	ck2, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck2.Encode(), enc) {
		t.Fatal("encode(decode(b)) != b")
	}
	ckAgain, err := Capture(c, 1, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckAgain.Encode(), enc) {
		t.Fatal("two captures at the same barrier differ")
	}
	if enc[len(enc)-1] != '\n' || bytes.HasSuffix(enc, []byte("\n\n")) {
		t.Fatal("canonical form wants exactly one trailing newline")
	}
}

// TestResumeUnderChaosRestoresFaultState: fault stream positions, the
// per-class ledgers, and episode phases must survive the round trip —
// checked indirectly by archive identity above, and directly here via
// the injector snapshots.
func TestResumeUnderChaosRestoresFaultState(t *testing.T) {
	const cut = 12 * time.Second
	run := buildCity(3, 2, true)
	if err := run.Run(cut); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(run, 3, "fp")
	if err != nil {
		t.Fatal(err)
	}
	resumed := buildCity(3, 2, true)
	loaded, err := Decode(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Apply(resumed, 3, "fp"); err != nil {
		t.Fatal(err)
	}
	for i := range run.Injectors {
		want, got := run.Injectors[i].Snapshot(), resumed.Injectors[i].Snapshot()
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("tile %d class %s: restored %+v, want %+v", i, want[j].Class, got[j], want[j])
			}
		}
	}
	wantFS, gotFS := run.FaultStats(), resumed.FaultStats()
	if len(wantFS) != len(gotFS) {
		t.Fatalf("fault stats length %d vs %d", len(gotFS), len(wantFS))
	}
	for i := range wantFS {
		if wantFS[i] != gotFS[i] {
			t.Fatalf("merged fault stats differ at %d: %+v vs %+v", i, gotFS[i], wantFS[i])
		}
	}
}

// TestApplyRejectsMismatch: wrong seed, wrong config, wrong format and
// wrong version all refuse.
func TestApplyRejectsMismatch(t *testing.T) {
	c := buildCity(1, 1, false)
	if err := c.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(c, 1, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Apply(buildCity(1, 1, false), 2, "fp"); err == nil {
		t.Fatal("applied under the wrong seed")
	}
	if err := ck.Apply(buildCity(1, 1, false), 1, "other"); err == nil {
		t.Fatal("applied under the wrong config fingerprint")
	}

	bad := bytes.Replace(ck.Encode(), []byte(`"format": "spider-checkpoint"`),
		[]byte(`"format": "spider-archive"`), 1)
	if _, err := Decode(bad); err == nil {
		t.Fatal("decoded a wrong-format document")
	}
	current := []byte(fmt.Sprintf(`"version": %d`, Version))
	for _, v := range []int{minVersion - 1, Version + 1} {
		bad = bytes.Replace(ck.Encode(), current, []byte(fmt.Sprintf(`"version": %d`, v)), 1)
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: decode error %v, want a version error", v, err)
		}
	}
	if _, err := Decode(append(ck.Encode(), []byte("{}")...)); err == nil {
		t.Fatal("decoded trailing data")
	}
	if _, err := Decode([]byte(fmt.Sprintf(`{"format": "spider-checkpoint", "version": %d, "unknown_field": 1}`, Version))); err == nil {
		t.Fatal("decoded an unknown field")
	}
}

// TestDecodeRefusesVersion2: a version-2 document is refused for its
// version, not for the v2-only fields its body carries (the driver's
// Dormant flag and duration logs).
func TestDecodeRefusesVersion2(t *testing.T) {
	doc := []byte(`{"format": "spider-checkpoint", "version": 2, "seed": 1, "config_fp": "fp",
		"city": {"Tiles": [{"World": {"Clients": [{"Driver": {"Dormant": true, "AssocTimes": [1]}}]}}]}}`)
	_, err := Decode(doc)
	if err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("decode error %v, want a version-2 refusal", err)
	}
}

// TestApplyRefusesCorruptState: edits that leave a checkpoint
// well-formed JSON but describe no state the simulator can hold are
// refused by Apply with an error, never a panic.
func TestApplyRefusesCorruptState(t *testing.T) {
	const seed = 3
	c := buildCity(seed, 1, false)
	if err := c.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(c, seed, "fp")
	if err != nil {
		t.Fatal(err)
	}
	enc := ck.Encode()
	for _, tc := range []struct {
		name string
		edit func(st *shard.CityState)
	}{
		{"timer seq at next seq", func(st *shard.CityState) {
			ts := &st.Tiles[0]
			ts.World.APs[0].AP.Beacon.Seq = ts.NextSeq
		}},
		{"timer in the past", func(st *shard.CityState) {
			st.Tiles[0].World.APs[0].AP.Beacon.At = st.Now - time.Millisecond
		}},
		{"radio on channel 99", func(st *shard.CityState) {
			st.Tiles[0].World.Medium.Radios[0].Channel = 99
		}},
		{"scan-table record on channel -1", func(st *shard.CityState) {
			firstTableRecord(t, st).Channel = -1
		}},
		{"scan-table record with zero BSSID", func(st *shard.CityState) {
			firstTableRecord(t, st).BSSID = wifi.Addr{}
		}},
		{"DHCP response of unknown kind", func(st *shard.CityState) {
			ap := &st.Tiles[0].World.APs[0].AP
			ap.DHCP.Pending = append(ap.DHCP.Pending, dhcp.PendingRespState{Kind: 3, Ev: ap.Beacon})
		}},
		{"queued frame with a completion tag of unknown kind", func(st *shard.CityState) {
			i, r, q := firstTaggedJob(st)
			if i < 0 {
				t.Fatal("fixture is dead: no queued frame carries a completion tag")
			}
			st.Tiles[i].World.Medium.Radios[r].Queue[q].Tag.Kind = radio.TagPSM + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edited, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !edited.City.Tiles[0].World.APs[0].AP.Beacon.Pending {
				t.Fatal("fixture is dead: the first AP has no pending beacon")
			}
			tc.edit(&edited.City)
			if err := edited.Apply(buildCity(seed, 1, false), seed, "fp"); err == nil {
				t.Fatal("Apply accepted the corrupt checkpoint")
			}
		})
	}
}

// TestApplyErrorPrecedence: when two tiles A < B of a checkpoint are
// corrupt, Apply reports A's error, with A's first error in restore
// order, at any worker count, although the tiles restore concurrently.
func TestApplyErrorPrecedence(t *testing.T) {
	const seed = 3
	c := buildCity(seed, 1, false)
	if err := c.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(c, seed, "fp")
	if err != nil {
		t.Fatal(err)
	}
	enc := ck.Encode()
	st := &ck.City

	// Case 1 corrupts a scan-table record in the first and the last tile
	// holding one.
	var tables []int
	for i, ts := range st.Tiles {
		for _, cs := range ts.World.Clients {
			if len(cs.Driver.Table) > 0 {
				tables = append(tables, i)
				break
			}
		}
	}
	// Case 2 corrupts an inbox frame in the first tile with one and the
	// world of the last tile.
	inbox := -1
	for i, ts := range st.Tiles {
		if len(ts.Inbox) > 0 {
			inbox = i
			break
		}
	}
	last := len(st.Tiles) - 1
	if len(tables) < 2 || inbox < 0 || inbox >= last {
		t.Fatalf("fixture is dead: tiles with tables %v, first inbox in tile %d of %d", tables, inbox, len(st.Tiles))
	}
	a, b := tables[0], tables[len(tables)-1]
	corruptTable := func(st *shard.CityState, i int) {
		for j := range st.Tiles[i].World.Clients {
			if cs := &st.Tiles[i].World.Clients[j]; len(cs.Driver.Table) > 0 {
				cs.Driver.Table[0].Channel = -1
				return
			}
		}
	}
	for _, tc := range []struct {
		name         string
		editA, editB func(st *shard.CityState)
		tileB        int
		want         string
	}{
		{"scan-table records on channel -1",
			func(st *shard.CityState) { corruptTable(st, a) },
			func(st *shard.CityState) { corruptTable(st, b) },
			b, "shard: tile 1: core: restored scan-table record 02:a0:00:00:00:08 on channel -1"},
		{"inbox frame on channel 99, then a radio on channel 99",
			func(st *shard.CityState) { st.Tiles[inbox].Inbox[0].Ch = 99 },
			func(st *shard.CityState) { st.Tiles[last].World.Medium.Radios[0].Channel = 99 },
			last, "shard: tile 0 inbox frame 0: on invalid channel 99"},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				apply := func(edits ...func(st *shard.CityState)) error {
					edited, err := Decode(enc)
					if err != nil {
						t.Fatal(err)
					}
					for _, edit := range edits {
						edit(&edited.City)
					}
					return edited.Apply(buildCity(seed, workers, false), seed, "fp")
				}
				// B's corruption alone is refused, so the pair tests
				// which of two errors wins.
				if err := apply(tc.editB); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("shard: tile %d", tc.tileB)) {
					t.Fatalf("with tile %d corrupt alone, Apply returned %v", tc.tileB, err)
				}
				if err := apply(tc.editA, tc.editB); err == nil || err.Error() != tc.want {
					t.Fatalf("Apply returned %v, want %q", err, tc.want)
				}
			})
		}
	}
}

// firstTableRecord returns the first scan-table record of any client
// in st, in tile and client order.
func firstTableRecord(t *testing.T, st *shard.CityState) *core.APRecord {
	t.Helper()
	i, j := firstTableClient(st)
	if i < 0 {
		t.Fatal("fixture is dead: no client has a scan-table record")
	}
	return &st.Tiles[i].World.Clients[j].Driver.Table[0]
}

// firstTableClient returns the tile and client index of the first
// client in st, in tile and client order, whose scan table is not
// empty, or -1, -1.
func firstTableClient(st *shard.CityState) (tile, client int) {
	for i, ts := range st.Tiles {
		for j, cs := range ts.World.Clients {
			if len(cs.Driver.Table) > 0 {
				return i, j
			}
		}
	}
	return -1, -1
}

// firstTaggedJob returns the tile, radio and queue index of the first
// queued frame in st, in tile, radio and queue order, that carries a
// completion tag, or -1, -1, -1.
func firstTaggedJob(st *shard.CityState) (tile, r, q int) {
	for i, ts := range st.Tiles {
		for j, rs := range ts.World.Medium.Radios {
			for k, js := range rs.Queue {
				if js.Tag.Kind != radio.TagNone {
					return i, j, k
				}
			}
		}
	}
	return -1, -1, -1
}
