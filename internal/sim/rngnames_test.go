package sim

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// nameHash is FNV-1a, so every stream keeps the seed it had when the
// kernel hashed names with hash/fnv.
func TestNameHashIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "a", "test.stream", "mac.joiner.02:00:00:00:00:01", strings.Repeat("x", 300)} {
		h := fnv.New64a()
		h.Write([]byte(name))
		if got, want := nameHash(name), h.Sum64(); got != want {
			t.Fatalf("nameHash(%q) = %#x, want %#x", name, got, want)
		}
		if got := nameHash([]byte(name)); got != h.Sum64() {
			t.Fatalf("nameHash([]byte(%q)) = %#x, want %#x", name, got, h.Sum64())
		}
	}
}

// Streams whose names hash alike share a table entry and stay
// distinct: each is found again by its own name, and both round-trip
// through ExportRNGs/RestoreRNGs under their names.
func TestCollidingStreamNamesChain(t *testing.T) {
	const h = 42
	k := NewKernel(3)
	a, b := findStream(k, h, "alpha"), findStream(k, h, []byte("beta"))
	if a == b || len(k.rngs) != 1 {
		t.Fatalf("colliding names: same stream %v, %d table entries; want distinct streams in 1", a == b, len(k.rngs))
	}
	if findStream(k, h, []byte("alpha")) != a || findStream(k, h, "beta") != b {
		t.Fatal("a colliding stream was not found again by its name")
	}
	a.r.Int63()
	b.r.Int63()
	b.r.Int63()
	pos := k.ExportRNGs()
	if len(pos) != 2 || pos[0] != (RNGPos{"alpha", 1}) || pos[1] != (RNGPos{"beta", 2}) {
		t.Fatalf("ExportRNGs = %+v", pos)
	}
	k.RestoreRNGs(nil)
	if a.src.Steps() != 0 || b.src.Steps() != 0 {
		t.Fatalf("after a restore to nothing: steps %d, %d; want 0, 0", a.src.Steps(), b.src.Steps())
	}
}

// A name lives in the kernel's arena, not in the caller's buffer, and
// no later name moves it: overwriting the buffer or filling several
// chunks leaves every exported name as it was created.
func TestStreamNamesOutliveTheirBuffers(t *testing.T) {
	k := NewKernel(5)
	var want []string
	buf := make([]byte, 0, 64)
	for i := 0; i < 3*nameChunkMax/13; i++ { // 13-byte names fill several chunks
		buf = fmt.Appendf(buf[:0], "stream.%06d", i)
		k.RNGBytes(buf).Int63()
		want = append(want, string(buf))
		buf[0] = '#'
	}
	long := strings.Repeat("L", nameChunkMax+1)
	k.RNG(long).Int63()
	want = append(want, long)
	pos := k.ExportRNGs()
	if len(pos) != len(want) {
		t.Fatalf("%d streams exported, want %d", len(pos), len(want))
	}
	seen := map[string]bool{}
	for _, p := range pos {
		seen[p.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Fatalf("stream %.20q missing from the export", name)
		}
	}
}

// Looking up an existing stream by a byte name allocates nothing, and
// creating one allocates only the stream once the arena has room.
func TestRNGBytesAllocations(t *testing.T) {
	k := NewKernel(9)
	name := []byte("dhcp.client.02:00:00:00:00:01")
	k.RNGBytes(name)
	if n := testing.AllocsPerRun(100, func() { k.RNGBytes(name) }); n != 0 {
		t.Fatalf("finding an existing stream allocated %.1f times", n)
	}
	k.rngs = make(map[uint64]*stream, 1024) // no table growth below
	k.names = make([]byte, 0, 4096)         // nor a new arena chunk
	i := 0
	n := testing.AllocsPerRun(20, func() {
		i++
		name[len(name)-1] = byte('a' + i)
		k.RNGBytes(name)
	})
	if n != 1 {
		t.Fatalf("creating a stream allocated %.1f times, want 1 (the stream)", n)
	}
}
