package metrics

// InvariantCount is one named violation counter in a checkpoint,
// carried in first-violation order so a restored set reports
// identically.
type InvariantCount struct {
	Name  string
	Count uint64
}

// ExportState captures the set's counters in first-violation order.
func (s *InvariantSet) ExportState() []InvariantCount {
	if s == nil {
		return nil
	}
	out := make([]InvariantCount, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, InvariantCount{Name: name, Count: s.counts[name]})
	}
	return out
}

// RestoreState rewinds the set to a checkpointed state, preserving the
// recorded first-violation order.
func (s *InvariantSet) RestoreState(st []InvariantCount) {
	if s == nil {
		return
	}
	s.counts = make(map[string]uint64, len(st))
	s.order = s.order[:0]
	for _, c := range st {
		s.order = append(s.order, c.Name)
		s.counts[c.Name] = c.Count
	}
}

// RecorderState is a Recorder's checkpointable state: its ledger in
// deterministic bin order.
type RecorderState struct {
	Bins []BinCount
	recorderScalars
}

// ExportState captures the recorder for a checkpoint.
func (r *Recorder) ExportState() RecorderState {
	return RecorderState{Bins: r.Bins(), recorderScalars: r.sc}
}

// RestoreState rewinds the recorder to a checkpointed state.
func (r *Recorder) RestoreState(st RecorderState) {
	r.bins = make(map[int64]int64, len(st.Bins))
	for _, b := range st.Bins {
		r.bins[b.Index] = b.Bytes
	}
	r.sc = st.recorderScalars
}
