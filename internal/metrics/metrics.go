// Package metrics implements the measurement machinery of the paper's
// evaluation (§4.3): time-binned throughput, connectivity (fraction of
// bins with non-zero transfer), connection/disruption interval
// extraction, instantaneous bandwidth, empirical CDFs, and summary
// statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Recorder accumulates delivered bytes into fixed-width time bins.
// The paper's metrics all derive from this: average throughput is total
// bytes over wall time, connectivity is the fraction of bins that saw a
// non-zero transfer, connections/disruptions are maximal runs of
// busy/idle bins, and instantaneous bandwidth is the per-busy-bin rate.
type Recorder struct {
	bin  time.Duration
	bins map[int64]int64
	sc   recorderScalars
}

// recorderScalars are a recorder's plain evolving fields, checkpointed
// whole.
type recorderScalars struct {
	Total int64
}

// NewRecorder creates a recorder with the given bin width (the paper
// uses one second).
func NewRecorder(bin time.Duration) *Recorder {
	if bin <= 0 {
		bin = time.Second
	}
	return &Recorder{bin: bin, bins: make(map[int64]int64)}
}

// Add records bytes delivered at virtual time t.
func (r *Recorder) Add(t time.Duration, bytes int) {
	if bytes <= 0 {
		return
	}
	r.bins[int64(t/r.bin)] += int64(bytes)
	r.sc.Total += int64(bytes)
}

// TotalBytes returns all bytes recorded.
func (r *Recorder) TotalBytes() int64 { return r.sc.Total }

// BinCount is one non-empty bin of a recorder's ledger.
type BinCount struct {
	Index int64 // bin number (time / bin width)
	Bytes int64
}

// Bins returns the non-empty bins sorted by index — the recorder's full
// ledger in a deterministic order, independent of insertion order. The
// archive layer serializes this as the client's throughput history.
func (r *Recorder) Bins() []BinCount {
	out := make([]BinCount, 0, len(r.bins))
	for i, b := range r.bins {
		out = append(out, BinCount{Index: i, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// numBins returns how many bins the window covers, counting a trailing
// partial bin as a bin. The earlier `window / bin` truncation silently
// dropped the final partial bin for windows that were not a multiple of
// the bin width, biasing connectivity and the run extraction.
func (r *Recorder) numBins(window time.Duration) int64 {
	if window <= 0 {
		return 0
	}
	n := int64(window / r.bin)
	if window%r.bin != 0 {
		n++
	}
	return n
}

// binWidth returns bin i's width within the window (the final bin may
// be partial).
func (r *Recorder) binWidth(i int64, window time.Duration) time.Duration {
	if rem := window - time.Duration(i)*r.bin; rem < r.bin {
		return rem
	}
	return r.bin
}

// ThroughputKBps returns average throughput over the window in KB/s
// (the unit Table 2 reports).
func (r *Recorder) ThroughputKBps(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(r.sc.Total) / 1000 / window.Seconds()
}

// Connectivity returns the fraction of bins within the window that saw a
// non-zero transfer.
func (r *Recorder) Connectivity(window time.Duration) float64 {
	n := r.numBins(window)
	if n <= 0 {
		return 0
	}
	busy := int64(0)
	for i := int64(0); i < n; i++ {
		if r.bins[i] > 0 {
			busy++
		}
	}
	return float64(busy) / float64(n)
}

// Connections returns the durations of maximal contiguous busy runs —
// the paper's "connection duration" CDF input (Fig 10a).
func (r *Recorder) Connections(window time.Duration) []time.Duration {
	return r.runs(window, true)
}

// Disruptions returns the durations of maximal contiguous idle runs —
// the paper's "disruption length" CDF input (Fig 10b).
func (r *Recorder) Disruptions(window time.Duration) []time.Duration {
	return r.runs(window, false)
}

func (r *Recorder) runs(window time.Duration, busy bool) []time.Duration {
	n := r.numBins(window)
	var out []time.Duration
	var run time.Duration
	for i := int64(0); i < n; i++ {
		isBusy := r.bins[i] > 0
		if isBusy == busy {
			// A trailing partial bin contributes only its clipped width, so
			// run durations never exceed the window.
			run += r.binWidth(i, window)
			continue
		}
		if run > 0 {
			out = append(out, run)
			run = 0
		}
	}
	if run > 0 {
		out = append(out, run)
	}
	return out
}

// InstantaneousKBps returns the per-busy-bin transfer rates in KB/s —
// the paper's "instantaneous bandwidth" CDF input (Fig 10c).
func (r *Recorder) InstantaneousKBps(window time.Duration) []float64 {
	n := r.numBins(window)
	var out []float64
	for i := int64(0); i < n; i++ {
		if b := r.bins[i]; b > 0 {
			// Rate over the bin's width within the window: a trailing
			// partial bin's bytes were delivered in its clipped span.
			out = append(out, float64(b)/1000/r.binWidth(i, window).Seconds())
		}
	}
	return out
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return CDF{sorted: s}
}

// DurationsCDF builds a CDF over durations expressed in seconds.
func DurationsCDF(ds []time.Duration) CDF {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return NewCDF(s)
}

// N returns the sample count.
func (c CDF) N() int { return len(c.sorted) }

// At returns the empirical P(X ≤ x).
func (c CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Include equal values.
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) by nearest-rank.
func (c CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Median returns the 0.5-quantile.
func (c CDF) Median() float64 { return c.Quantile(0.5) }

// Point is one (x, P(X≤x)) pair of a rendered CDF.
type Point struct {
	X float64
	P float64
}

// Points samples the CDF at n evenly spaced probabilities, suitable for
// plotting a figure's series.
func (c CDF) Points(n int) []Point {
	if n <= 0 || len(c.sorted) == 0 {
		return nil
	}
	out := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		out = append(out, Point{X: c.Quantile(p), P: p})
	}
	return out
}

// Mean returns the arithmetic mean of samples (NaN if empty).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func StdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := Mean(samples)
	var ss float64
	for _, v := range samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}

// FormatKBps renders a throughput the way the paper's tables do.
func FormatKBps(v float64) string { return fmt.Sprintf("%.1f KB/s", v) }

// FormatPct renders a fraction as a percentage.
func FormatPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
