package checkpoint

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/radio"
	"spider/internal/shard"
)

// FuzzDecodeCheckpoint is the codec's robustness contract: Decode never
// panics on arbitrary bytes, and whenever it accepts a document, the
// canonical re-encoding is a fixed point — encode(decode(x)) decodes to
// the same document and re-encodes byte-identically. Deep consistency
// (does this state describe the rebuilt world?) is Apply's job and is
// exercised by the crash-resume tests; the decoder's only promises are
// no-panic and canonical stability.
func FuzzDecodeCheckpoint(f *testing.F) {
	// A real checkpoint mid-run, chaos on, as the main seed — a small
	// city so per-exec decode cost leaves the fuzzer time to mutate.
	c := smallCity(1)
	if err := c.Run(2 * time.Second); err != nil {
		f.Fatal(err)
	}
	ck, err := Capture(c, 1, "fp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encode(ck))
	// Seed the interesting rejection paths so mutations explore them.
	f.Add([]byte(`{"format":"spider-checkpoint","version":1,"seed":1,"config_fp":"x","city":{}}`))
	f.Add([]byte(`{"format":"spider-checkpoint","version":2}`))
	f.Add([]byte(`{"format":"spider-archive","version":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json at all`))
	f.Add(append(encode(ck), []byte("{}")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		enc := encode(ck)
		b, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if re := encode(b); !bytes.Equal(enc, re) {
			t.Fatalf("canonical encoding is not a fixed point")
		}
	})
}

// smallCity is the fuzz targets' city: small enough that one decode or
// one resumed epoch leaves the fuzzer time to mutate, with obs and chaos
// on and two tiles, so every part of the state tree is populated,
// pending halo mirrors included.
func smallCity(seed int64) *shard.City {
	spec := testSpec(seed)
	spec.NumAPs, spec.NumClients = 8, 3
	spec.AreaW, spec.AreaH = 900, 300
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	c := shard.NewCity(spec, cfg, 1)
	c.EnableObs(0)
	c.ApplyChaos(fault.Aggressive())
	return c
}

// mutable names the state fields FuzzApplyCheckpoint edits: counts,
// indices, tile ids, times, event sequence numbers, channels, kinds
// (completion tags, metric handles), RNG stream positions (N), and the
// halo frames' destinations and positions. A slice of numbers is
// matched by its own field name (ResidentTile).
var mutable = map[string]bool{
	"Now": true, "NextSeq": true, "Fired": true, "Migrations": true,
	"Client": true, "From": true, "To": true, "ResidentTile": true, "Dst": true,
	"At": true, "Seq": true, "IdleUntil": true, "SuspendedTo": true, "BusyUntil": true,
	"Channel": true, "Ch": true, "TxCh": true, "SwCh": true,
	"SchedIdx": true, "APSliceIdx": true, "BGHome": true, "SwOutstanding": true,
	"NextIP": true, "AID": true, "Total": true, "X": true, "Y": true, "N": true, "Kind": true,
}

// leaf is one editable number in a checkpoint and its path there.
type leaf struct {
	v    reflect.Value
	path string
}

// numericLeaves appends every settable number under v whose field is
// named in mutable, in a fixed walk order.
func numericLeaves(v reflect.Value, name, path string, out []leaf) []leaf {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out = numericLeaves(v.Elem(), name, path, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() || f.Anonymous {
				out = numericLeaves(v.Field(i), f.Name, path+"."+f.Name, out)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = numericLeaves(v.Index(i), name, fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		if mutable[name] && v.CanSet() {
			out = append(out, leaf{v, path})
		}
	}
	return out
}

// set writes x into l, converted to its kind.
func (l leaf) set(x int64) {
	switch l.v.Kind() {
	case reflect.Float32, reflect.Float64:
		l.v.SetFloat(float64(x))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		l.v.SetUint(uint64(x))
	default:
		l.v.SetInt(x)
	}
}

// FuzzApplyCheckpoint is the restore path's robustness contract: a real
// capture with one count, index, tile id, time, sequence number,
// channel, RNG position or halo field set to an arbitrary value is
// either refused by Apply with an error, or restores into a city that
// runs one more epoch without a panic and without adding invariant
// violations.
func FuzzApplyCheckpoint(f *testing.F) {
	build := func() *shard.City { return smallCity(3) }
	src := build()
	if err := src.Run(2 * time.Second); err != nil {
		f.Fatal(err)
	}
	ck, err := Capture(src, 3, "fp")
	if err != nil {
		f.Fatal(err)
	}
	enc := encode(ck)
	// resume applies ck to a fresh city and runs it one epoch on. It
	// reports whether Apply accepted ck, then the epoch's error and the
	// invariant violations the epoch added.
	resume := func(ck *Checkpoint) (applied bool, added uint64, err error) {
		c := build()
		if ck.Apply(c, 3, "fp") != nil {
			return false, 0, nil
		}
		before := c.InvariantsTotal()
		err = c.Run(c.Now() + c.Layout.Epoch)
		return true, c.InvariantsTotal() - before, err
	}
	applied, baseline, err := resume(ck)
	if !applied || err != nil {
		f.Fatalf("the unedited capture does not resume: applied=%v, %v", applied, err)
	}
	leaves := numericLeaves(reflect.ValueOf(&ck.City), "", "", nil)
	n := len(leaves)
	for _, v := range []int64{0, -1, 1, 99, 1 << 40, -(1 << 40)} {
		for _, i := range []int{0, n / 3, n / 2, n - 1} {
			f.Add(uint32(i), v)
		}
	}
	// The corrupt-table document: a client's first scan-table record on
	// channel -1, which the driver's restore must refuse.
	i, j := firstTableClient(&ck.City)
	f.Add(leafIndex(f, leaves, fmt.Sprintf(".Tiles[%d].World.Clients[%d].Driver.Table[0].Channel", i, j)), int64(-1))
	// The far-position document: tile 0's loss stream at 2^34 draws,
	// drawn on the next epoch's first delivery.
	f.Add(leafIndex(f, leaves, rngPath(f, &ck.City, 0, "radio.loss")), int64(1<<34))
	// The unknown-tag document: a queued frame's completion tag of a
	// kind no owner sends, which the radio's restore must refuse.
	i, r, q := firstTaggedJob(&ck.City)
	if i < 0 {
		f.Fatal("fixture is dead: no queued frame carries a completion tag")
	}
	f.Add(leafIndex(f, leaves, fmt.Sprintf(".Tiles[%d].World.Medium.Radios[%d].Queue[%d].Tag.Kind", i, r, q)),
		int64(radio.TagPSM+1))
	// The foreign-beacon document: a pending mirror on a valid channel
	// other than its AP's, which the shard's restore must refuse.
	i = firstInbox(&ck.City)
	if i < 0 {
		f.Fatal("fixture is dead: no tile has a pending mirror")
	}
	f.Add(leafIndex(f, leaves, fmt.Sprintf(".Tiles[%d].Inbox[0].Ch", i)),
		int64(otherChannel(ck.City.Tiles[i].Inbox[0].Ch)))
	// The retuned-AP document: the radio of that mirror's AP on another
	// valid channel, where its next beacon could not be mirrored; the
	// shard's restore must refuse it.
	i, r = boundaryAPRadio(f, &ck.City, src.Layout)
	f.Add(leafIndex(f, leaves, fmt.Sprintf(".Tiles[%d].World.Medium.Radios[%d].Channel", i, r)),
		int64(otherChannel(ck.City.Tiles[i].World.Medium.Radios[r].Channel)))

	f.Fuzz(func(t *testing.T, idx uint32, v int64) {
		edited, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		leaves := numericLeaves(reflect.ValueOf(&edited.City), "", "", nil)
		l := leaves[int(idx)%len(leaves)]
		l.set(v)
		applied, added, err := resume(edited)
		switch {
		case !applied:
		case err != nil:
			t.Fatalf("city%s = %d: resumed city failed its next epoch: %v", l.path, v, err)
		case added > baseline:
			t.Fatalf("city%s = %d: resumed city added %d invariant violations in one epoch, unedited %d",
				l.path, v, added, baseline)
		}
	})
}

// leafIndex returns the index of the leaf at path.
func leafIndex(tb testing.TB, leaves []leaf, path string) uint32 {
	tb.Helper()
	for i, l := range leaves {
		if l.path == path {
			return uint32(i)
		}
	}
	tb.Fatalf("no editable leaf at city%s", path)
	return 0
}

// rngPath is the leaf path of the position of tile's kernel stream
// name.
func rngPath(tb testing.TB, st *shard.CityState, tile int, name string) string {
	tb.Helper()
	for k, p := range st.Tiles[tile].RNGs {
		if p.Name == name {
			return fmt.Sprintf(".Tiles[%d].RNGs[%d].N", tile, k)
		}
	}
	tb.Fatalf("tile %d has no stream %q", tile, name)
	return ""
}

// TestApplyFarRNGPositions: a checkpoint whose tile-0 stream positions
// all read 2^34 applies, and its next epoch runs in well under the
// hours a draw-by-draw replay of those positions would take.
func TestApplyFarRNGPositions(t *testing.T) {
	src := smallCity(3)
	if err := src.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	ck, err := Capture(src, 3, "fp")
	if err != nil {
		t.Fatal(err)
	}
	ts := &ck.City.Tiles[0]
	if len(ts.RNGs) == 0 || ts.Injector == nil || len(ts.Injector.Streams) == 0 {
		t.Fatal("fixture is dead: tile 0 has no kernel or fault stream positions")
	}
	for i := range ts.RNGs {
		ts.RNGs[i].N = 1 << 34
	}
	for i := range ts.Injector.Streams {
		ts.Injector.Streams[i].N = 1 << 34
	}
	c := smallCity(3)
	if err := ck.Apply(c, 3, "fp"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Run(c.Now() + c.Layout.Epoch); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the epoch after far stream positions took %v", d)
	}
}
