// A reimplementation of math/rand's "go1" generator (the additive
// lagged-Fibonacci source behind rand.NewSource) that is bit-identical
// to the standard library but built for the join storm: seeding a
// stdlib source costs ~1900 Schrage LCG steps plus a 5 KB feedback
// register, and the metro cold start creates hundreds of thousands of
// short-lived per-(client,AP) streams, which made stdlib seeding ~45%
// of the whole first virtual second. This file provides:
//
//   - g1Entry: any single entry of the freshly-seeded feedback register
//     computed on demand in O(1) via an LCG jump table, without
//     materializing the register. The generator's first rngTap (273)
//     outputs read only virgin register entries — out_k =
//     vec[333-k] + vec[606-k] — so a stream's first 273 draws need no
//     register at all. CountedSource exploits this to stay a few dozen
//     bytes until a stream proves it is long-lived.
//
//   - go1Source: the full register generator for streams that cross the
//     sparse horizon, seeded with the same jump-free fast LCG (one
//     64-bit multiply per step instead of Schrage division), and able
//     to jump ahead to any position without drawing its way there, so
//     a restored stream position costs milliseconds however far it is.
//
// Bit-identity with math/rand is load-bearing: golden archive fixtures
// and the committed warm-start checkpoint pin exact output bytes. It is
// enforced two ways: the seed-dependent part of the register is XORed
// with the same cooked constants the stdlib uses — recovered at init
// from a live rand.NewSource rather than duplicated here, and verified
// by reproducing that source's own output — and the package tests
// compare CountedSource draw-for-draw against math/rand across seeds,
// sparse/full boundaries and reseeds.
package sim

import (
	"math/bits"
	"math/rand"
)

const (
	g1Len = 607 // length of the feedback register
	g1Tap = 273 // distance between the two taps; also the sparse horizon
	g1M   = 1<<31 - 1
	g1A   = 48271 // multiplier of the seeding LCG: x' = 48271·x mod 2³¹−1

	// Register indices read by draw k < g1Tap: feed = g1Feed0−k,
	// tap = g1Len−1−k (both pre-decremented before the first read).
	g1Feed0 = g1Len - g1Tap - 1 // 333

	// Seedrand steps consumed before the first component of register
	// entry 0 (the stdlib's Seed warms the LCG for 21 steps first).
	g1Warm = 21

	// g1JumpMin is the position from which a register is built by
	// jump-ahead (go1Source.jump) instead of replaying every draw. On a
	// 2-vCPU x86-64 guest both cost ~0.4 ms at 2¹⁸
	// (BenchmarkCountedSourceMaterialize); a jump to 2³⁴ takes ~2 ms.
	g1JumpMin = 1 << 18
)

var (
	// g1Cooked are the seed-independent register constants (rngCooked
	// in the stdlib), recovered in init from rand.NewSource(1).
	g1Cooked [g1Len]uint64

	// g1Pow[n] = g1A^n mod g1M, for jumping the seeding LCG to the
	// steps that feed an arbitrary register entry.
	g1Pow [g1Warm + 3*g1Len]uint32
)

// g1Norm maps an int64 seed to the LCG's normalized starting state,
// exactly as the stdlib's Seed does.
func g1Norm(seed int64) uint32 {
	seed %= g1M
	if seed < 0 {
		seed += g1M
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint32(seed)
}

// g1Seedrand advances the seeding LCG one step: 48271·x mod 2³¹−1.
// Instead of the stdlib's Schrage division it reduces with a Mersenne
// fold — 2³¹ ≡ 1 (mod 2³¹−1) — which is a single multiply, shift and
// add. The result is identical for every x in [1, 2³¹−2].
func g1Seedrand(x uint32) uint32 {
	p := uint64(x) * g1A
	v := uint32(p>>31) + uint32(p&g1M)
	if v >= g1M {
		v -= g1M
	}
	return v
}

// g1MulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1, by double Mersenne
// fold.
func g1MulMod(a, b uint32) uint32 {
	p := uint64(a) * uint64(b)
	v := p>>31 + p&g1M
	v = v>>31 + v&g1M
	if v >= g1M {
		v -= g1M
	}
	return uint32(v)
}

// g1Entry computes entry i of the freshly seeded feedback register for
// the normalized seed state x0, without the register: the three LCG
// values that feed entry i sit at known step offsets, reached in O(1)
// through the power table.
func g1Entry(x0 uint32, i int32) uint64 {
	x1 := g1MulMod(x0, g1Pow[g1Warm+3*i])
	x2 := g1Seedrand(x1)
	x3 := g1Seedrand(x2)
	return (uint64(x1)<<40 ^ uint64(x2)<<20 ^ uint64(x3)) ^ g1Cooked[i]
}

// g1Sparse returns output k (0-based, k < g1Tap) of a generator seeded
// with normalized state x0. The first g1Tap outputs read only virgin
// register entries, so each is the sum of two on-demand entries.
func g1Sparse(x0 uint32, k uint32) uint64 {
	return g1Entry(x0, int32(g1Feed0-k)) + g1Entry(x0, int32(g1Len-1-k))
}

// go1Source is the full-register generator, bit-identical to the
// stdlib's rngSource. CountedSource materializes one only after a
// stream's draws cross the sparse horizon.
type go1Source struct {
	tap, feed int32
	vec       [g1Len]uint64
}

// seed fills the register for normalized seed state x0, identically to
// rngSource.Seed but with the fold-based LCG step.
func (g *go1Source) seed(x0 uint32) {
	g.tap = 0
	g.feed = g1Len - g1Tap
	x := x0
	for i := 0; i < g1Warm-1; i++ {
		x = g1Seedrand(x)
	}
	for i := 0; i < g1Len; i++ {
		x = g1Seedrand(x)
		u := uint64(x) << 40
		x = g1Seedrand(x)
		u ^= uint64(x) << 20
		x = g1Seedrand(x)
		u ^= uint64(x)
		g.vec[i] = u ^ g1Cooked[i]
	}
}

func (g *go1Source) Uint64() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += g1Len
	}
	g.feed--
	if g.feed < 0 {
		g.feed += g1Len
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return x
}

// jump advances a freshly seeded g by n outputs in O(g1Len²·log n)
// without drawing them. Output u[m] is written to slot (333−m) mod
// g1Len. Number the virgin entries as outputs too: slot e holds u[m]
// for the m in [−g1Len, 0) with m ≡ 333−e. Then the register always
// holds the g1Len most recent u, and u[m] = u[m−g1Len] + u[m−g1Tap]
// for every m ≥ 0. Shifted to w[i] = u[i−g1Len], that recurrence has
// characteristic polynomial P(x) = x^607 − x^334 − 1 and holds from
// i = g1Len on, so w[n+j] = Σ c_i·w[i+j] with c = x^n mod P: the
// register after n draws, w[n .. n+g1Len), follows from the virgin
// register and the first g1Len−1 outputs (all arithmetic mod 2⁶⁴).
func (g *go1Source) jump(n uint64) {
	var w [2*g1Len - 1]uint64
	for i := 0; i < g1Len; i++ {
		w[i] = g.vec[(g1Feed0-i+g1Len)%g1Len]
	}
	h := *g
	for i := g1Len; i < len(w); i++ {
		w[i] = h.Uint64()
	}
	c := g1XPow(n)
	r := int(n % g1Len)
	for j := 0; j < g1Len; j++ {
		var v uint64
		for i, ci := range c {
			v += ci * w[i+j]
		}
		g.vec[(2*g1Len+g1Feed0-r-j)%g1Len] = v
	}
	g.tap = int32((g1Len - r) % g1Len)
	g.feed = int32((2*g1Len - g1Tap - r) % g1Len)
}

// g1XPow returns x^n mod x^607 − x^334 − 1 over the integers mod 2⁶⁴,
// by squaring from the top bit of n.
func g1XPow(n uint64) *[g1Len]uint64 {
	r := new([g1Len]uint64)
	r[0] = 1
	var sq [2*g1Len - 1]uint64
	for b := bits.Len64(n) - 1; b >= 0; b-- {
		sq = [2*g1Len - 1]uint64{}
		for i, ri := range r {
			if ri == 0 {
				continue
			}
			sq[2*i] += ri * ri
			ri2 := 2 * ri
			for j := i + 1; j < g1Len; j++ {
				sq[i+j] += ri2 * r[j]
			}
		}
		// x^i = x^(i−273) + x^(i−607) for i ≥ 607, top down.
		for i := len(sq) - 1; i >= g1Len; i-- {
			sq[i-g1Tap] += sq[i]
			sq[i-g1Len] += sq[i]
		}
		copy(r[:], sq[:g1Len])
		if n>>uint(b)&1 == 1 {
			top := r[g1Len-1]
			copy(r[1:], r[:g1Len-1])
			r[0] = top
			r[g1Len-g1Tap] += top
		}
	}
	return r
}

// init recovers the cooked register constants from the standard
// library itself. The first g1Len outputs of any go1 source determine
// its virgin register: draws k < g1Tap are sums of two virgin entries,
// draws k ≥ g1Tap replace the tap-side entry with output k−g1Tap, so
//
//	vec[feed(k)] = out[k] − out[k−g1Tap]   for k in [g1Tap, g1Len)
//	vec[e]       = out[333−e] − vec[e+g1Tap] for e in [61, 333]
//
// (indices mod g1Len, arithmetic mod 2⁶⁴). XORing out the
// seed-dependent part for seed 1 leaves the cooked constants. The
// recovery is self-checking: the first g1Tap stdlib outputs must
// reproduce exactly from the recovered register.
func init() {
	g1Pow[0] = 1
	for i := 1; i < len(g1Pow); i++ {
		g1Pow[i] = g1MulMod(g1Pow[i-1], g1A)
	}

	src := rand.NewSource(1).(rand.Source64)
	var out [g1Len]uint64
	for i := range out {
		out[i] = src.Uint64()
	}
	var vec [g1Len]uint64
	for k := g1Tap; k < g1Len; k++ {
		vec[(g1Feed0-k+g1Len)%g1Len] = out[k] - out[k-g1Tap]
	}
	for e := g1Feed0; e >= g1Feed0-g1Tap+1; e-- {
		vec[e] = out[g1Feed0-e] - vec[e+g1Tap]
	}
	for k := 0; k < g1Tap; k++ {
		if vec[g1Feed0-k]+vec[g1Len-1-k] != out[k] {
			panic("sim: go1 register recovery does not reproduce math/rand output")
		}
	}

	x := g1Norm(1)
	for i := 0; i < g1Warm-1; i++ {
		x = g1Seedrand(x)
	}
	for i := 0; i < g1Len; i++ {
		x = g1Seedrand(x)
		u := uint64(x) << 40
		x = g1Seedrand(x)
		u ^= uint64(x) << 20
		x = g1Seedrand(x)
		u ^= uint64(x)
		g1Cooked[i] = vec[i] ^ u
	}
}
