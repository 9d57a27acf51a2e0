package shard

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"spider/internal/docfile"
	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/sweep"
)

// quickFixture is one of spider-bench's quick sharded-city fleets.
type quickFixture struct {
	name         string
	areaM        float64
	aps, clients int
	tiles        int
}

// The quick storm and city fleets of cmd/spider-bench.
var (
	quickStorm = quickFixture{name: "storm", areaM: 3000, aps: 500, clients: 1000, tiles: 49}
	quickCity  = quickFixture{name: "city", areaM: 2000, aps: 220, clients: 22, tiles: 25}
)

// build plans and builds the fixture's city at the given worker count.
func (f quickFixture) build(seed int64, workers int) *City {
	spec := scenario.CityGrid(seed, f.aps, f.clients)
	spec.AreaW, spec.AreaH = f.areaM, f.areaM
	spec.Radio = radio.Defaults()
	spec.Radio.DataRateKbps = 24_000
	return NewCity(spec, testCfg(), workers)
}

// encodeState is the city's exported state in docfile's canonical
// encoding, the one a checkpoint is written in.
func encodeState(t testing.TB, c *City) []byte {
	t.Helper()
	st, err := c.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := docfile.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestNewCityIndependentOfWorkers: a city built and exported on any
// number of workers is the same city. Its exported state, encoded as a
// checkpoint is, carries every kernel's sequence counter and every
// medium's radio registration order; it must match workers=1 right
// after the build and again after two virtual seconds, so a tile build
// or export that depends on scheduling fails here, not only in
// end-of-run digests.
func TestNewCityIndependentOfWorkers(t *testing.T) {
	const seed = 1
	for _, f := range []quickFixture{quickStorm, quickCity} {
		t.Run(f.name, func(t *testing.T) {
			var want [2][]byte
			for _, workers := range []int{1, 2, 8} {
				c := f.build(seed, workers)
				if c.Layout.NTiles != f.tiles {
					t.Fatalf("fixture has %d tiles, want %d", c.Layout.NTiles, f.tiles)
				}
				got := [2][]byte{encodeState(t, c)}
				if err := c.Run(2 * time.Second); err != nil {
					t.Fatal(err)
				}
				got[1] = encodeState(t, c)
				if workers == 1 {
					want = got
					continue
				}
				for k, at := range []string{"after the build", "at 2s"} {
					if !bytes.Equal(got[k], want[k]) {
						t.Fatalf("workers=%d %s: state differs from workers=1 at %s",
							workers, at, firstDiff(string(want[k]), string(got[k])))
					}
				}
			}
		})
	}
}

// TestTileBuildPanic: a tile whose build panics (here every AP is
// planned on channel 99, which no radio can tune to) panics out of
// NewCity as the worker pool's *sweep.PanicError naming the tile, at
// any worker count.
func TestTileBuildPanic(t *testing.T) {
	for _, workers := range []int{1, 2} {
		spec := testSpec(1)
		spec.Mix = geo.ChannelMix{99: 1}
		func() {
			defer func() {
				pe, ok := recover().(*sweep.PanicError)
				if !ok || !strings.Contains(fmt.Sprint(pe.Value), "invalid channel 99") {
					t.Fatalf("workers %d: NewCity panicked with %v, want a *sweep.PanicError for channel 99", workers, pe)
				}
			}()
			NewCity(spec, testCfg(), workers)
		}()
	}
}

// TestClientsInMACOrder: a planned city's clients come out strictly
// ascending by MAC address. Clients returns plan order as is, so this
// pins that plan order is MAC order; a plan ID that stops being written
// big-endian into the address fails here.
func TestClientsInMACOrder(t *testing.T) {
	c := quickStorm.build(1, 2)
	cl := c.Clients()
	if len(cl) != quickStorm.clients {
		t.Fatalf("%d clients, want %d", len(cl), quickStorm.clients)
	}
	for i := 1; i < len(cl); i++ {
		a, b := cl[i-1].Addr(), cl[i].Addr()
		if bytes.Compare(a[:], b[:]) >= 0 {
			t.Fatalf("client %d (%v) does not sort after client %d (%v)", i, b, i-1, a)
		}
	}
}

// BenchmarkCityCheckpoint times a city's export and its restore into a
// freshly built city, on the quick storm fixture after one virtual
// second. The build of each restore target is not timed.
func BenchmarkCityCheckpoint(b *testing.B) {
	const seed = 1
	for _, workers := range []int{1, 2} {
		c := quickStorm.build(seed, workers)
		if err := c.Run(time.Second); err != nil {
			b.Fatal(err)
		}
		st, err := c.ExportState()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("export/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.ExportState(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("restore/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := quickStorm.build(seed, workers)
				b.StartTimer()
				if err := fresh.RestoreState(st); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
