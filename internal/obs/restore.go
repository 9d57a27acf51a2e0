package obs

import (
	"fmt"
	"math"
	"sort"
)

// HandleState is one typed metric handle's value in a checkpoint.
// Read-closure metrics (CounterFunc/GaugeFunc) are deliberately absent:
// they read live component state, which restores through the component.
type HandleState struct {
	Name string
	Kind Kind

	Value  uint64  // counter
	Bits   uint64  // gauge (float64 bits)
	Sum    float64 // histogram
	Count  uint64
	Counts []uint64 // histogram per-bucket, last is +Inf
}

// ExportHandles captures every typed handle's accumulated value, sorted
// by name. Handles at zero are skipped: a rebuilt registry recreates
// them fresh, which is the same state.
func (r *Registry) ExportHandles() []HandleState {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []HandleState
	for _, e := range r.entries {
		hs := HandleState{Name: e.name, Kind: e.kind}
		switch {
		case e.counter != nil:
			if hs.Value = e.counter.Value(); hs.Value == 0 {
				continue
			}
		case e.gauge != nil:
			if hs.Bits = e.gauge.bits.Load(); hs.Bits == 0 {
				continue
			}
		case e.hist != nil:
			if hs.Count = e.hist.Count(); hs.Count == 0 {
				continue
			}
			hs.Sum = e.hist.Sum()
			hs.Counts = e.hist.BucketCounts()
		default:
			continue // closure-only entry
		}
		out = append(out, hs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RestoreHandles rewinds every typed handle to a checkpointed state.
// The rebuilt world must have registered the same handles (attachment
// is deterministic); handles it registered that the snapshot omits are
// zeroed, cancelling construction-time increments.
func (r *Registry) RestoreHandles(st []HandleState) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		switch {
		case e.counter != nil:
			e.counter.v.Store(0)
		case e.gauge != nil:
			e.gauge.bits.Store(0)
		case e.hist != nil:
			for i := range e.hist.counts {
				e.hist.counts[i].Store(0)
			}
			e.hist.sum.Store(0)
			e.hist.count.Store(0)
		}
	}
	for _, hs := range st {
		e := r.entries[hs.Name]
		if e == nil {
			return fmt.Errorf("obs: restored metric %q was never registered", hs.Name)
		}
		if hs.Kind != e.kind {
			return fmt.Errorf("obs: metric %q restored as a %v, registered as a %v", hs.Name, hs.Kind, e.kind)
		}
		switch {
		case e.counter != nil:
			e.counter.v.Store(hs.Value)
		case e.gauge != nil:
			e.gauge.bits.Store(hs.Bits)
		case e.hist != nil:
			if len(hs.Counts) != len(e.hist.counts) {
				return fmt.Errorf("obs: metric %q restored with %d buckets, registered with %d",
					hs.Name, len(hs.Counts), len(e.hist.counts))
			}
			for i, c := range hs.Counts {
				e.hist.counts[i].Store(c)
			}
			e.hist.sum.Store(math.Float64bits(hs.Sum))
			e.hist.count.Store(hs.Count)
		default:
			return fmt.Errorf("obs: restored metric %q has no typed handle", hs.Name)
		}
	}
	return nil
}

// TracerState is a Tracer's checkpointable state: the retained ring in
// recording order plus the counters that extend it. The clock binding
// and filter are reconstructed by the rebuild.
type TracerState struct {
	Events []TraceEvent
	tracerScalars
}

// ExportState captures the tracer for a checkpoint.
func (t *Tracer) ExportState() TracerState {
	if t == nil {
		return TracerState{}
	}
	st := TracerState{Events: t.Events()}
	t.mu.Lock()
	defer t.mu.Unlock()
	st.tracerScalars = t.sc
	return st
}

// RestoreState rewinds the tracer to a checkpointed state. The ring
// capacity must match the rebuild's (same run configuration).
func (t *Tracer) RestoreState(st TracerState) error {
	if t == nil {
		if st.Total != 0 {
			return fmt.Errorf("obs: tracer state restored into a nil tracer")
		}
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(st.Events) > len(t.ring) {
		return fmt.Errorf("obs: tracer restored with %d events into a %d-slot ring",
			len(st.Events), len(t.ring))
	}
	for i := range t.ring {
		t.ring[i] = TraceEvent{}
	}
	// Events() returned oldest-first; lay them back so the next write
	// lands where it would have in the uninterrupted run.
	capN := uint64(len(t.ring))
	start := uint64(0)
	if st.Total > capN {
		start = st.Total - capN
	}
	for i, ev := range st.Events {
		t.ring[(start+uint64(i))%capN] = ev
	}
	t.sc = st.tracerScalars
	return nil
}
