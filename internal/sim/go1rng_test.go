package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// go1 bit-identity is load-bearing: golden archive fixtures and the
// committed warm-start checkpoint pin exact output bytes, so
// CountedSource must reproduce rand.NewSource draw-for-draw — across
// the sparse horizon, the register wrap, seeding edge cases and
// reseeds.

var g1Seeds = []int64{
	0, 1, -1, 2, 42, 89482311, 1<<31 - 1, 1 << 31, -(1<<31 - 1),
	math.MaxInt64, math.MinInt64, 0x5DEECE66D, -776103469239275,
}

func TestCountedSourceMatchesStdlib(t *testing.T) {
	const draws = 2000 // crosses the sparse horizon (273) and the register (607)
	for _, seed := range g1Seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got := NewCountedSource(seed)
		for i := 0; i < draws; i++ {
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, stdlib %#x", seed, i, g, w)
			}
		}
		if got.Steps() != draws {
			t.Fatalf("seed %d: Steps = %d, want %d", seed, got.Steps(), draws)
		}
	}
}

func TestCountedSourceInt63MatchesStdlib(t *testing.T) {
	// Mixing Int63 and Uint64 draws must track the stdlib's own mix:
	// both consume one source step with different masking.
	ref := rand.NewSource(7).(rand.Source64)
	got := NewCountedSource(7)
	for i := 0; i < 1000; i++ {
		if i%3 == 0 {
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("draw %d: Int63 = %#x, stdlib %#x", i, g, w)
			}
		} else {
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("draw %d: Uint64 = %#x, stdlib %#x", i, g, w)
			}
		}
	}
}

func TestCountedSourceViaRand(t *testing.T) {
	// Through the rand.Rand conversion layer, where callers live.
	ref := rand.New(rand.NewSource(99))
	got := rand.New(NewCountedSource(99))
	for i := 0; i < 500; i++ {
		if g, w := got.Float64(), ref.Float64(); g != w {
			t.Fatalf("draw %d: Float64 = %v, stdlib %v", i, g, w)
		}
		if g, w := got.Intn(1000), ref.Intn(1000); g != w {
			t.Fatalf("draw %d: Intn = %d, stdlib %d", i, g, w)
		}
		if g, w := got.NormFloat64(), ref.NormFloat64(); g != w {
			t.Fatalf("draw %d: NormFloat64 = %v, stdlib %v", i, g, w)
		}
	}
}

func TestCountedSourceReseed(t *testing.T) {
	for _, burn := range []uint64{0, 1, 5, 272, 273, 274, 606, 607, 608, 1881, 5000} {
		c := NewCountedSource(1)
		for i := 0; i < 40; i++ { // dirty the stream first
			c.Uint64()
		}
		c.Reseed(1234, burn)
		if c.Steps() != burn {
			t.Fatalf("burn %d: Steps = %d after Reseed", burn, c.Steps())
		}
		ref := rand.NewSource(1234).(rand.Source64)
		for i := uint64(0); i < burn; i++ {
			ref.Uint64()
		}
		for i := 0; i < 700; i++ {
			if g, w := c.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("burn %d draw %d: %#x, stdlib %#x", burn, i, g, w)
			}
		}
		if c.Steps() != burn+700 {
			t.Fatalf("burn %d: Steps = %d, want %d", burn, c.Steps(), burn+700)
		}
	}
}

func TestCountedSourceSeedKeepsSteps(t *testing.T) {
	c := NewCountedSource(5)
	for i := 0; i < 10; i++ {
		c.Uint64()
	}
	c.Seed(77)
	if c.Steps() != 10 {
		t.Fatalf("Seed reset Steps: %d", c.Steps())
	}
	ref := rand.NewSource(77).(rand.Source64)
	for i := 0; i < 700; i++ {
		if g, w := c.Uint64(), ref.Uint64(); g != w {
			t.Fatalf("draw %d after Seed: %#x, stdlib %#x", i, g, w)
		}
	}
}

func TestCountedSourceColdUntilHorizon(t *testing.T) {
	// The whole point: short-lived streams never build a register.
	c := NewCountedSource(3)
	for i := 0; i < g1Tap; i++ {
		c.Uint64()
	}
	if c.src != nil {
		t.Fatalf("register materialized before the sparse horizon")
	}
	c.Uint64()
	if c.src == nil {
		t.Fatalf("register not materialized after crossing the horizon")
	}
}

func TestSeedrandMatchesSchrage(t *testing.T) {
	// The fold-based LCG step must equal the stdlib's Schrage form on
	// the full state space edge cases and a dense sample.
	schrage := func(x int32) int32 {
		const a, q, r = 48271, 44488, 3399
		hi, lo := x/q, x%q
		x = a*lo - r*hi
		if x < 0 {
			x += 1<<31 - 1
		}
		return x
	}
	check := func(x uint32) {
		if g, w := g1Seedrand(x), uint32(schrage(int32(x))); g != w {
			t.Fatalf("seedrand(%d) = %d, schrage %d", x, g, w)
		}
	}
	for x := uint32(1); x < 5_000_000; x += 17 {
		check(x)
	}
	for _, x := range []uint32{1, 2, 44487, 44488, 44489, 1<<31 - 2} {
		check(x)
	}
}

func BenchmarkCountedSourceCreate(b *testing.B) {
	// Stream creation is the storm's hot path; it must not seed.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewCountedSource(int64(i))
	}
}

func BenchmarkCountedSourceSparseDraws(b *testing.B) {
	// A joiner-like stream: created, drawn a handful of times.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCountedSource(int64(i))
		for j := 0; j < 6; j++ {
			c.Uint64()
		}
	}
}

func BenchmarkStdlibSourceCreateAndDraw(b *testing.B) {
	// The stdlib baseline for the two benchmarks above.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := rand.NewSource(int64(i)).(rand.Source64)
		for j := 0; j < 6; j++ {
			s.Uint64()
		}
	}
}

func TestGo1OutputRecurrence(t *testing.T) {
	// The identity jump-ahead rests on: out[m] = out[m−607] + out[m−273]
	// (mod 2⁶⁴) for every m ≥ 607.
	src := rand.NewSource(11).(rand.Source64)
	out := make([]uint64, 5000)
	for i := range out {
		out[i] = src.Uint64()
	}
	for m := g1Len; m < len(out); m++ {
		if out[m] != out[m-g1Len]+out[m-g1Tap] {
			t.Fatalf("out[%d] = %#x, out[m-607]+out[m-273] = %#x", m, out[m], out[m-g1Len]+out[m-g1Tap])
		}
	}
}

func TestGo1JumpMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	positions := []uint64{0, 1, 272, 273, 274, 605, 606, 607, 608, 1213, 1214,
		g1JumpMin - 1, g1JumpMin, g1JumpMin + 1, g1JumpMin + uint64(rng.Int63n(1<<24))}
	for _, seed := range []int64{1, -776103469239275} {
		for _, n := range positions {
			var ref, got go1Source
			ref.seed(g1Norm(seed))
			for i := uint64(0); i < n; i++ {
				ref.Uint64()
			}
			got.seed(g1Norm(seed))
			got.jump(n)
			for i := 0; i < 2*g1Len; i++ {
				if g, w := got.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d, jump %d: draw %d = %#x, replay %#x", seed, n, i, g, w)
				}
			}
		}
	}
}

func TestCountedSourceFarPosition(t *testing.T) {
	// A position no replay could reach in reasonable time: a source
	// reseeded there must agree with one reseeded 1,000 draws earlier
	// and drawn forward, and both must materialize quickly.
	const far = 1 << 34
	a, b := NewCountedSource(5), NewCountedSource(5)
	a.Reseed(5, far)
	b.Reseed(5, far-1000)
	for i := 0; i < 1000; i++ {
		b.Uint64()
	}
	for i := 0; i < 2*g1Len; i++ {
		if g, w := a.Uint64(), b.Uint64(); g != w {
			t.Fatalf("draw %d past 2^34: %#x, %#x", i, g, w)
		}
	}
	if a.Steps() != far+2*g1Len {
		t.Fatalf("Steps = %d, want %d", a.Steps(), far+2*g1Len)
	}
}

func BenchmarkCountedSourceMaterialize(b *testing.B) {
	// Replay below g1JumpMin, jump-ahead from it: the crossover should
	// sit where the two cost about the same.
	for _, pos := range []uint64{g1JumpMin - 1, g1JumpMin, 1 << 34} {
		b.Run(fmt.Sprintf("pos=%d", pos), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := NewCountedSource(int64(i))
				c.Reseed(int64(i), pos)
				c.Uint64()
			}
		})
	}
}
