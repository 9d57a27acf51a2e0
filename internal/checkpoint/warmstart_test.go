package checkpoint

import (
	"compress/gzip"
	"flag"
	"io"
	"os"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/shard"
)

// The warm-start fixture is a committed checkpoint of a steady-state
// city: every client associated, DHCP-configured, and mid-transfer, the
// join/convergence transient long past. Benchmarks and experiments that
// only care about steady-state behaviour resume from it instead of
// paying the cold-start transient each time.
//
// Regenerate after any change that moves simulation bytes:
//
//	go test ./internal/checkpoint -run TestWarmStartFixture -regen-warmstart
const (
	warmFixture = "testdata/warmstart.ckpt.gz"
	warmSeed    = 7
	warmFP      = "warmstart-v1"
	warmAt      = 30 * time.Second // fixture checkpoint time (a barrier epoch)
	warmRun     = 5 * time.Second  // steady-state window the benchmark measures
)

var regenWarm = flag.Bool("regen-warmstart", false, "regenerate testdata/warmstart.ckpt.gz and exit")

// The fixture is stored gzipped: the canonical JSON is repetitive and
// compresses roughly tenfold, and the checked-in artifact should not
// dominate the repository. Only the fixture is compressed — the live
// checkpoint files spider-sim writes stay plain JSON for inspectability.
func readWarmFixture() (*Checkpoint, error) {
	f, err := os.Open(warmFixture)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

func writeWarmFixture(ck *Checkpoint) error {
	f, err := os.OpenFile(warmFixture, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestCompression)
	if _, err := zw.Write(encode(ck)); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// warmCity is a compact downtown core — big enough to exercise every
// subsystem at steady state, small enough that the committed fixture
// stays a few hundred kilobytes.
func warmCity() *shard.City {
	spec := testSpec(warmSeed)
	spec.NumAPs, spec.NumClients = 16, 6
	spec.AreaW, spec.AreaH = 800, 400
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	c := shard.NewCity(spec, cfg, 1)
	c.EnableObs(0)
	return c
}

// TestWarmStartFixture keeps the committed fixture honest: it must
// decode, apply onto a freshly built city, and advance — drift between
// the fixture and the simulator shows up here, not in a benchmark.
// With -regen-warmstart it rewrites the fixture instead.
func TestWarmStartFixture(t *testing.T) {
	if *regenWarm {
		c := warmCity()
		if err := c.Run(warmAt); err != nil {
			t.Fatal(err)
		}
		ck, err := Capture(c, warmSeed, warmFP)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeWarmFixture(ck); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes uncompressed, t=%v)", warmFixture, len(encode(ck)), warmAt)
		return
	}
	ck, err := readWarmFixture()
	if err != nil {
		t.Fatalf("%v (regenerate with -regen-warmstart)", err)
	}
	c := warmCity()
	if err := ck.Apply(c, warmSeed, warmFP); err != nil {
		t.Fatalf("fixture no longer applies: %v (regenerate with -regen-warmstart)", err)
	}
	if c.Now() != warmAt {
		t.Fatalf("fixture resumes at %v, want %v", c.Now(), warmAt)
	}
	if err := c.Run(warmAt + time.Second); err != nil {
		t.Fatalf("resumed city failed to advance: %v", err)
	}
}

// BenchmarkMetroWarmStart measures the value of resuming: "warm"
// applies the steady-state fixture and runs a 5-second measurement
// window; "cold" builds from scratch and must first simulate the whole
// 30-second convergence transient to reach the same window.
func BenchmarkMetroWarmStart(b *testing.B) {
	ck, err := readWarmFixture()
	if err != nil {
		b.Fatalf("%v (regenerate with -regen-warmstart)", err)
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := warmCity()
			if err := ck.Apply(c, warmSeed, warmFP); err != nil {
				b.Fatal(err)
			}
			if err := c.Run(warmAt + warmRun); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := warmCity()
			if err := c.Run(warmAt + warmRun); err != nil {
				b.Fatal(err)
			}
		}
	})
}
