package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind identifies a metric's type.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing metric handle. All methods are
// safe on a nil receiver (no-ops), so holders never need a guard.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable metric handle. Nil-safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed upper-bound buckets
// (Prometheus le semantics: bucket i counts v ≤ Bounds[i]; one implicit
// +Inf bucket catches the rest). Nil-safe like Counter.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// LatencyBuckets are the default bounds (seconds) for join/switch-style
// latencies: 10 ms to ~50 s, roughly ×2 per bucket.
var LatencyBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50}

// entry is one registered metric: a typed handle, read-closures, or
// both. Closure values are summed on top of the handle at export time,
// so several attached worlds can publish into one name.
type entry struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	fns        []func() float64
}

// Registry holds a run's metrics. Handle registration is get-or-create:
// asking for an existing name of the same kind returns the shared
// handle, so every world attached to one registry accumulates into the
// same totals. A nil *Registry is safe: registration returns nil
// handles (which are themselves no-ops).
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) get(name, help string, kind Kind) *entry {
	e := r.entries[name]
	if e == nil {
		e = &entry{name: name, help: help, kind: kind}
		r.entries[name] = e
		return e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, e.kind))
	}
	return e
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, help, KindCounter)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, help, KindGauge)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (sorted; LatencyBuckets if empty).
// Re-registration returns the existing handle; its original bounds win.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, help, KindHistogram)
	if e.hist == nil {
		if len(bounds) == 0 {
			bounds = LatencyBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		e.hist = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	return e.hist
}

// CounterFunc registers a read-closure counter: fn is evaluated at
// export time and summed with any other closures (or handle) under the
// same name. The closure must be safe to call after the run completes.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, help, KindCounter)
	e.fns = append(e.fns, fn)
}

// GaugeFunc registers a read-closure gauge (summed like CounterFunc).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.get(name, help, KindGauge)
	e.fns = append(e.fns, fn)
}

// MetricPoint is one metric's exported state.
type MetricPoint struct {
	Name, Help string
	Kind       Kind
	Value      float64 // counter/gauge value
	// Histogram state (nil/zero otherwise).
	Bounds []float64
	Counts []uint64 // per-bucket, last is +Inf
	Sum    float64
	Count  uint64
}

// Snapshot is a registry's state frozen at one instant, sorted by
// metric name — the deterministic unit of aggregation and export.
type Snapshot []MetricPoint

// Snapshot freezes the registry (evaluating read-closures) into a
// name-sorted Snapshot. Nil registries snapshot empty.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.entries))
	for _, e := range r.entries {
		p := MetricPoint{Name: e.name, Help: e.help, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			p.Value = float64(e.counter.Value())
		case KindGauge:
			p.Value = e.gauge.Value()
		case KindHistogram:
			p.Bounds = e.hist.Bounds()
			p.Counts = e.hist.BucketCounts()
			p.Sum = e.hist.Sum()
			p.Count = e.hist.Count()
		}
		for _, fn := range e.fns {
			p.Value += fn()
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MergeSnapshots folds snapshots in the given (index) order into one:
// counters and histograms sum; gauges take the last snapshot's value;
// a histogram whose bounds disagree with the first occurrence keeps the
// first occurrence's buckets but still sums Sum/Count. Feeding it the
// index-ordered output of a sweep makes the merged export independent
// of worker count.
//
// Equal names tie-break on the FIRST occurrence: its Kind, Help and
// bucket layout win, and every later point with that name folds in
// under the first occurrence's kind regardless of its own. Folding by
// the incoming point's kind would let a kind-conflicting registration
// flip an accumulator between sum and last-write semantics depending on
// which snapshot it arrived in — exactly the input-order sensitivity
// the archive byte-gate exists to rule out.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	byName := make(map[string]*MetricPoint)
	var order []string
	for _, s := range snaps {
		for i := range s {
			p := s[i]
			acc := byName[p.Name]
			if acc == nil {
				cp := p
				cp.Bounds = append([]float64(nil), p.Bounds...)
				cp.Counts = append([]uint64(nil), p.Counts...)
				byName[p.Name] = &cp
				order = append(order, p.Name)
				continue
			}
			switch acc.Kind {
			case KindCounter:
				acc.Value += p.Value
			case KindGauge:
				acc.Value = p.Value
			case KindHistogram:
				acc.Sum += p.Sum
				acc.Count += p.Count
				if len(p.Counts) == len(acc.Counts) {
					for j := range p.Counts {
						acc.Counts[j] += p.Counts[j]
					}
				}
			}
		}
	}
	sort.Strings(order)
	out := make(Snapshot, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ValidMetricName reports whether name matches the exposition-format
// metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// SanitizeMetricName maps an arbitrary string onto the metric-name
// grammar: every invalid byte becomes '_', a leading digit is prefixed
// with '_', and the empty name becomes "_". Valid names pass through
// unchanged, so sanitizing at export never perturbs well-named metrics.
func SanitizeMetricName(name string) string {
	if ValidMetricName(name) {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeHelp escapes HELP text per the exposition format: backslash and
// line feed only ('"' is NOT escaped in HELP — a parser would keep the
// backslash and the text would change).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// EscapeLabelValue escapes a label value per the exposition format:
// backslash, line feed, and double quote.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\n\"") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Output is deterministic: metrics sort by name.
//
// The writer guarantees a real scraper can always parse the result:
// metric names are sanitized onto the exposition grammar (invalid bytes
// become '_'; simulation metrics are all well-named, so this only moves
// hostile or foreign names), HELP text escapes backslashes and
// newlines, and label values escape backslashes, newlines and quotes.
// Two metrics whose names sanitize onto one exposition name (or onto
// a histogram's _bucket, _sum or _count series) would give one name
// two TYPEs, so a later one takes the first free "_<n>" suffix.
// Before this hardening a help string containing a newline, or a metric
// name with a '-', produced output a Prometheus scrape would reject —
// which the supervisor's live /metrics endpoint turns from a cosmetic
// file bug into a service outage.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	taken := make(map[string]bool, len(s))
	for _, p := range s {
		name := exposedName(SanitizeMetricName(p.Name), p.Kind, taken)
		if p.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(p.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, p.Kind); err != nil {
			return err
		}
		switch p.Kind {
		case KindHistogram:
			cum := uint64(0)
			for i, b := range p.Bounds {
				if i < len(p.Counts) {
					cum += p.Counts[i]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, EscapeLabelValue(fmtFloat(b)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, p.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(p.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", name, p.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// histogramSeries are the suffixes of a histogram's sample names.
var histogramSeries = []string{"_bucket", "_sum", "_count"}

// exposedName returns name, or name with the first "_<n>" suffix that
// makes it free, and marks the metric's sample names as taken. A name
// is free when neither it nor, for a histogram, its series names are
// already taken.
func exposedName(name string, kind Kind, taken map[string]bool) string {
	free := func(n string) bool {
		if taken[n] {
			return false
		}
		if kind == KindHistogram {
			for _, suf := range histogramSeries {
				if taken[n+suf] {
					return false
				}
			}
		}
		return true
	}
	out := name
	for i := 2; !free(out); i++ {
		out = name + "_" + strconv.Itoa(i)
	}
	taken[out] = true
	if kind == KindHistogram {
		for _, suf := range histogramSeries {
			taken[out+suf] = true
		}
	}
	return out
}
