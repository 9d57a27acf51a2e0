package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRecorderThroughput(t *testing.T) {
	r := NewRecorder(time.Second)
	for i := 0; i < 10; i++ {
		r.Add(time.Duration(i)*time.Second, 50_000)
	}
	// 500 KB over 10 s = 50 KB/s.
	if got := r.ThroughputKBps(10 * time.Second); got != 50 {
		t.Fatalf("throughput = %v", got)
	}
	if r.TotalBytes() != 500_000 {
		t.Fatalf("total = %d", r.TotalBytes())
	}
}

func TestRecorderConnectivity(t *testing.T) {
	r := NewRecorder(time.Second)
	// Busy in seconds 0,1,2 and 5 of a 10s window.
	for _, s := range []int{0, 1, 2, 5} {
		r.Add(time.Duration(s)*time.Second+100*time.Millisecond, 1000)
	}
	if got := r.Connectivity(10 * time.Second); got != 0.4 {
		t.Fatalf("connectivity = %v, want 0.4", got)
	}
}

func TestRecorderConnectionsAndDisruptions(t *testing.T) {
	r := NewRecorder(time.Second)
	for _, s := range []int{0, 1, 2, 5} {
		r.Add(time.Duration(s)*time.Second, 1000)
	}
	conns := r.Connections(10 * time.Second)
	want := []time.Duration{3 * time.Second, time.Second}
	if len(conns) != 2 || conns[0] != want[0] || conns[1] != want[1] {
		t.Fatalf("connections = %v", conns)
	}
	gaps := r.Disruptions(10 * time.Second)
	wantGaps := []time.Duration{2 * time.Second, 4 * time.Second}
	if len(gaps) != 2 || gaps[0] != wantGaps[0] || gaps[1] != wantGaps[1] {
		t.Fatalf("disruptions = %v", gaps)
	}
}

func TestRecorderInstantaneous(t *testing.T) {
	r := NewRecorder(time.Second)
	r.Add(0, 100_000)
	r.Add(3*time.Second, 300_000)
	inst := r.InstantaneousKBps(5 * time.Second)
	if len(inst) != 2 || inst[0] != 100 || inst[1] != 300 {
		t.Fatalf("instantaneous = %v", inst)
	}
}

func TestRecorderIgnoresNonPositive(t *testing.T) {
	r := NewRecorder(time.Second)
	r.Add(0, 0)
	r.Add(0, -5)
	if r.TotalBytes() != 0 || r.Connectivity(time.Second) != 0 {
		t.Fatal("non-positive bytes recorded")
	}
}

func TestRecorderDefaultBin(t *testing.T) {
	r := NewRecorder(0)
	r.Add(1500*time.Millisecond, 10)
	if r.Connectivity(2*time.Second) != 0.5 {
		t.Fatal("default bin not 1s")
	}
}

// Property: connections + disruptions tile the window exactly.
func TestPropertyRunsTileWindow(t *testing.T) {
	f := func(busySeconds []uint8) bool {
		r := NewRecorder(time.Second)
		for _, s := range busySeconds {
			r.Add(time.Duration(s%60)*time.Second, 100)
		}
		window := 60 * time.Second
		var sum time.Duration
		for _, d := range r.Connections(window) {
			sum += d
		}
		for _, d := range r.Disruptions(window) {
			sum += d
		}
		return sum == window
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileAndAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if c.Median() != 3 {
		t.Fatalf("median = %v", c.Median())
	}
	if c.Quantile(0) != 1 || c.Quantile(1) != 5 {
		t.Fatalf("extremes: %v %v", c.Quantile(0), c.Quantile(1))
	}
	if c.At(3) != 0.6 {
		t.Fatalf("At(3) = %v, want 0.6", c.At(3))
	}
	if c.At(0.5) != 0 || c.At(10) != 1 {
		t.Fatalf("At bounds: %v %v", c.At(0.5), c.At(10))
	}
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	if c.At(1) != 0 {
		t.Fatal("empty At should be 0")
	}
	if c.Points(5) != nil {
		t.Fatal("empty Points should be nil")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.NormFloat64()
	}
	pts := NewCDF(samples).Points(20)
	if len(pts) != 20 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P <= pts[i-1].P {
			t.Fatalf("points not monotone at %d: %+v", i, pts[i-1:i+1])
		}
	}
	if pts[len(pts)-1].P != 1 {
		t.Fatal("final point not at P=1")
	}
}

// Property: Quantile is monotone and At∘Quantile ≥ p.
func TestPropertyQuantileConsistency(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		prev := math.Inf(-1)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			q := c.Quantile(p)
			if q < prev {
				return false
			}
			prev = q
			if c.At(q) < p-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationsCDF(t *testing.T) {
	c := DurationsCDF([]time.Duration{time.Second, 3 * time.Second})
	if c.Median() != 1 {
		t.Fatalf("median = %v", c.Median())
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean broken")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
	sd := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(sd-2.138) > 0.01 {
		t.Fatalf("stddev = %v", sd)
	}
	if StdDev([]float64{1}) != 0 {
		t.Fatal("single-sample stddev should be 0")
	}
}

func TestFormatters(t *testing.T) {
	if FormatKBps(121.53) != "121.5 KB/s" {
		t.Fatalf("FormatKBps = %q", FormatKBps(121.53))
	}
	if FormatPct(0.355) != "35.5%" {
		t.Fatalf("FormatPct = %q", FormatPct(0.355))
	}
}

func TestNewCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if !sort.Float64sAreSorted(in) {
		// Input should be untouched (still unsorted is fine); what we
		// verify is that the original ordering survives.
		if in[0] != 3 || in[1] != 1 || in[2] != 2 {
			t.Fatal("NewCDF mutated input")
		}
	}
}
