package tcpsim

import "spider/internal/sim"

// SenderState is a Sender's complete checkpointable state. The flow
// identity, config and callbacks are reconstructed by the owner; this
// carries only what evolves during the run.
type SenderState struct {
	senderScalars
	Inflight []unacked
	RTOTimer sim.EventState
}

// ExportState captures the sender for a checkpoint.
func (s *Sender) ExportState() SenderState {
	return SenderState{
		senderScalars: s.sc,
		Inflight:      append([]unacked(nil), s.inflight...),
		RTOTimer:      sim.CaptureEvent(s.rtoTimer),
	}
}

// RestoreState rewinds a freshly constructed sender to a checkpointed
// state, re-arming the RTO timer with its recorded (at, seq) identity.
// Call after the owning kernel's BeginRestore.
func (s *Sender) RestoreState(st SenderState) {
	s.sc = st.senderScalars
	s.inflight = append(s.inflight[:0], st.Inflight...)
	s.rtoTimer.Cancel()
	s.rtoTimer = st.RTOTimer.Restore(s.kernel, s, 0)
}

// ReceiverState is a Receiver's checkpointable state.
type ReceiverState struct {
	receiverScalars
	OOO [][2]uint64
}

// ExportState captures the receiver for a checkpoint.
func (r *Receiver) ExportState() ReceiverState {
	st := ReceiverState{receiverScalars: r.sc}
	for _, x := range r.ooo {
		st.OOO = append(st.OOO, [2]uint64{x.start, x.end})
	}
	return st
}

// RestoreState rewinds the receiver to a checkpointed state.
func (r *Receiver) RestoreState(st ReceiverState) {
	r.sc = st.receiverScalars
	r.ooo = r.ooo[:0]
	for _, x := range st.OOO {
		r.ooo = append(r.ooo, segRange{start: x[0], end: x[1]})
	}
}
