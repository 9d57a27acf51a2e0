package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.v.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", "help"); again != c {
		t.Fatal("re-registration must return the same handle")
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Set(1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %g, want 1.25", got)
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	g.Set(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var r *Registry
	if s := r.Snapshot(); len(s) != 0 {
		t.Fatalf("nil registry snapshot = %v, want empty", s)
	}
}

// Handles must be race-free: the sweep engine snapshots registries from
// the main goroutine while worker goroutines are still incrementing
// their own worlds' shared handles (spider-exp's parallel sub-runs).
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("racy_total", "")
	h := r.Histogram("racy_seconds", "", 0.5, 1, 2)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.75)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

// Bucket semantics are Prometheus `le`: an observation equal to a bound
// lands in that bound's bucket, one past the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", 1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 9} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	want := []uint64{2, 2, 1, 1} // ≤1: {0.5,1}; ≤2: {1.5,2}; ≤4: {4}; +Inf: {9}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 0.5+1+1.5+2+4+9 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "")
	if len(h.Bounds()) != len(LatencyBuckets) {
		t.Fatalf("default bounds = %v, want LatencyBuckets", h.Bounds())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "")
}

func TestCounterFuncAddsToSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mixed_total", "")
	c.v.Add(3)
	v := uint64(7)
	r.CounterFunc("mixed_total", "", func() float64 { return float64(v) })
	s := r.Snapshot()
	if len(s) != 1 || s[0].Value != 10 {
		t.Fatalf("snapshot = %+v, want single point value 10", s)
	}
	v = 9 // closures are read at snapshot time, not registration time
	if got := r.Snapshot()[0].Value; got != 12 {
		t.Fatalf("second snapshot = %g, want 12", got)
	}
}

func TestSnapshotIsNameSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", "")
	r.Counter("aaa", "")
	r.Gauge("mmm", "")
	s := r.Snapshot()
	for i := 1; i < len(s); i++ {
		if s[i-1].Name > s[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s[i-1].Name, s[i].Name)
		}
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(counter float64, gauge float64, obs ...float64) Snapshot {
		r := NewRegistry()
		r.Counter("c_total", "").v.Add(uint64(counter))
		r.Gauge("g", "").Set(gauge)
		h := r.Histogram("h_seconds", "", 1, 2)
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	m := MergeSnapshots(mk(3, 1.0, 0.5), mk(4, 2.0, 1.5, 9))
	byName := map[string]MetricPoint{}
	for _, p := range m {
		byName[p.Name] = p
	}
	if got := byName["c_total"].Value; got != 7 {
		t.Fatalf("merged counter = %g, want 7", got)
	}
	if got := byName["g"].Value; got != 2.0 {
		t.Fatalf("merged gauge = %g, want last-wins 2.0", got)
	}
	h := byName["h_seconds"]
	if h.Count != 3 || h.Sum != 0.5+1.5+9 {
		t.Fatalf("merged histogram count=%d sum=%g, want 3 / 11", h.Count, h.Sum)
	}
	wantCounts := []uint64{1, 1, 1} // ≤1: 0.5; ≤2: 1.5; +Inf: 9
	for i, w := range wantCounts {
		if h.Counts[i] != w {
			t.Fatalf("merged bucket[%d] = %d, want %d", i, h.Counts[i], w)
		}
	}
}

// Two registries registering the same NAME as different kinds must
// merge under the first occurrence's kind — the explicit tie-break on
// equal keys. Folding by the incoming point's kind would make the
// accumulator's semantics (sum vs last-write) depend on which snapshot
// a point arrived in, so the merged value — and any archive built from
// it — would no longer be a pure function of the index-ordered inputs.
func TestMergeSnapshotsEqualNameKindTieBreak(t *testing.T) {
	counterSnap := func(v uint64) Snapshot {
		r := NewRegistry()
		r.Counter("clash", "").v.Add(v)
		return r.Snapshot()
	}
	gaugeSnap := func(v float64) Snapshot {
		r := NewRegistry()
		r.Gauge("clash", "").Set(v)
		return r.Snapshot()
	}

	// First occurrence is a counter: later gauge points fold as sums.
	m := MergeSnapshots(counterSnap(3), gaugeSnap(10), counterSnap(4))
	if len(m) != 1 || m[0].Kind != KindCounter {
		t.Fatalf("merge = %+v, want one counter point", m)
	}
	if m[0].Value != 17 {
		t.Fatalf("counter-first merge = %g, want 3+10+4 = 17 (first kind wins)", m[0].Value)
	}

	// First occurrence is a gauge: later counter points fold last-wins.
	m = MergeSnapshots(gaugeSnap(10), counterSnap(3), counterSnap(4))
	if len(m) != 1 || m[0].Kind != KindGauge {
		t.Fatalf("merge = %+v, want one gauge point", m)
	}
	if m[0].Value != 4 {
		t.Fatalf("gauge-first merge = %g, want last-wins 4", m[0].Value)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("spider_switches_total", "Channel switches.").v.Add(2)
	r.Gauge("sim_virtual_time_seconds", "Virtual clock.").Set(120.5)
	h := r.Histogram("spider_join_seconds", "Join durations.", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP spider_switches_total Channel switches.",
		"# TYPE spider_switches_total counter",
		"spider_switches_total 2",
		"# TYPE sim_virtual_time_seconds gauge",
		"sim_virtual_time_seconds 120.5",
		"# TYPE spider_join_seconds histogram",
		`spider_join_seconds_bucket{le="0.1"} 1`,
		`spider_join_seconds_bucket{le="1"} 2`, // cumulative: 0.05 + 0.5
		`spider_join_seconds_bucket{le="+Inf"} 3`,
		"spider_join_seconds_sum 3.55",
		"spider_join_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
