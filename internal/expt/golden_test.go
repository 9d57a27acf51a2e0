package expt

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// suiteSnapshot runs every registered experiment with the given options
// and serializes all results into one byte blob. Any experiment error
// fails the test immediately.
func suiteSnapshot(t *testing.T, o Options) string {
	t.Helper()
	var b strings.Builder
	for _, id := range IDs() {
		res, err := Run(id, o)
		if err != nil {
			t.Fatalf("Run(%q, workers=%d): %v", id, o.Workers, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", id, res.String())
	}
	return b.String()
}

// goldenSuiteSHA256 pins the seed-7, scale-0.02 suite snapshot across
// commits: a change that moves any experiment's serialized result
// (Table 1, the join-delay and throughput figures, Table 3, ...) fails
// here even when it stays deterministic. Re-pin only for a change that
// is meant to move a result, and say which.
const goldenSuiteSHA256 = "4635d6569bd72feba1a71111c55bddbe82d75e13c16984dc8a9482ca29f475c1"

// TestGoldenDeterminism is the contract the sweep engine exists to
// keep: the full experiment suite produces byte-identical serialized
// output at any worker count, and repeated runs with the same seed
// match exactly. A tiny scale keeps it fast; determinism does not
// depend on scale.
func TestGoldenDeterminism(t *testing.T) {
	base := Options{Seed: 7, Scale: 0.02}

	opts := base
	opts.Workers = 1
	golden := suiteSnapshot(t, opts)
	if golden == "" {
		t.Fatal("suite produced no output")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(golden))); got != goldenSuiteSHA256 {
		t.Errorf("suite snapshot sha256 = %s, pinned %s", got, goldenSuiteSHA256)
	}

	again := suiteSnapshot(t, opts)
	if golden != again {
		t.Errorf("two sequential runs with the same seed differ:\n%s",
			firstDiff(golden, again))
	}

	for _, w := range []int{2, 8} {
		opts := base
		opts.Workers = w
		got := suiteSnapshot(t, opts)
		if got != golden {
			t.Errorf("workers=%d output differs from workers=1:\n%s",
				w, firstDiff(golden, got))
		}
	}
}

// firstDiff renders the first line where two snapshots diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
