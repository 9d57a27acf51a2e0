package radio

import (
	"fmt"
	"sort"
	"time"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// TxTag kinds. A tag names a done callback well enough for the frame's
// owner to rebuild the closure at restore time.
const (
	// TagNone marks a frame sent without a completion callback.
	TagNone uint8 = iota
	// TagAPPump is an AP's downlink pump completion; Addr is the client
	// being pumped (the AP itself is identified by the radio's owner).
	TagAPPump
	// TagPSM is a client driver's PSM-entry confirmation; Gen is the
	// switch generation the callback is guarded by.
	TagPSM
)

// TxTag is the serializable identity of a transmit-completion callback.
type TxTag struct {
	Kind uint8
	Addr wifi.Addr
	Gen  uint64
}

// TxJobState is one queued frame in a radio checkpoint.
type TxJobState struct {
	Frame   []byte
	Ch      int
	Attempt int
	Tag     TxTag
}

// RadioState is a radio's complete checkpointable state. When TxBusy,
// the queue head is the in-flight frame and TxDone is its
// end-of-transmission event. Radio's fields are listed here one by
// one, not grouped: its layout is pinned (TestRadioWalkFieldsShareALine)
// around the first cache line the medium's walks read.
type RadioState struct {
	Addr        wifi.Addr
	Channel     int
	Promiscuous bool
	SuspendedTo time.Duration
	BusyUntil   time.Duration
	Air         Airtime
	Queue       []TxJobState
	TxBusy      bool
	TxCh        int
	TxDur       time.Duration
	TxDone      sim.EventState
}

// ExportState captures the radio for a checkpoint. It fails if a queued
// frame carries an untagged completion callback — closures cannot be
// serialized, so such a queue is uncheckpointable (production senders
// always tag; see SendTagged).
func (r *Radio) ExportState() (RadioState, error) {
	st := RadioState{
		Addr: r.addr, Channel: r.channel, Promiscuous: r.promiscuous,
		SuspendedTo: r.suspendedTo, BusyUntil: r.busyUntil,
		Air: r.air, TxBusy: r.txBusy,
	}
	for i := r.txHead; i < len(r.txQueue); i++ {
		job := &r.txQueue[i]
		if job.done != nil && job.tag.Kind == TagNone {
			return RadioState{}, fmt.Errorf("radio %s: queued frame has an untagged completion callback", r.addr)
		}
		st.Queue = append(st.Queue, TxJobState{
			Frame: job.f.Encode(), Ch: job.ch, Attempt: job.attempt, Tag: job.tag,
		})
	}
	if r.txBusy {
		st.TxCh, st.TxDur = r.txCh, r.txDur
		if st.TxDone = sim.CaptureEvent(r.txDoneEv); !st.TxDone.Pending {
			return RadioState{}, fmt.Errorf("radio %s: transmitting but no pending completion event", r.addr)
		}
	}
	return st, nil
}

// RestoreState rewinds a freshly built radio to a checkpointed state.
// resolve rebuilds a tagged completion callback from its identity; it is
// consulted once per tagged queue entry and must not return nil for a
// tag it recognizes. Call after the owning kernel's BeginRestore; any
// in-flight retune is re-armed separately by its owner via RestoreRetune.
func (r *Radio) RestoreState(st RadioState, resolve func(TxTag) func(delivered bool)) error {
	if st.Addr != r.addr {
		return fmt.Errorf("radio restore: state for %s applied to %s", st.Addr, r.addr)
	}
	if !wifi.Tunable(st.Channel) {
		return fmt.Errorf("radio %s: restored to invalid channel %d", r.addr, st.Channel)
	}
	r.setChannel(st.Channel)
	r.SetPromiscuous(st.Promiscuous)
	r.suspendedTo = st.SuspendedTo
	r.busyUntil = st.BusyUntil
	r.air = st.Air
	r.txQueue = r.txQueue[:0]
	r.txHead = 0
	for _, js := range st.Queue {
		if !wifi.Tunable(js.Ch) {
			return fmt.Errorf("radio %s: queued frame on invalid channel %d", r.addr, js.Ch)
		}
		f, err := wifi.Decode(js.Frame)
		if err != nil {
			return fmt.Errorf("radio %s: restoring queued frame: %w", r.addr, err)
		}
		var done func(bool)
		if js.Tag.Kind != TagNone {
			if resolve == nil {
				return fmt.Errorf("radio %s: tagged frame but no callback resolver", r.addr)
			}
			if done = resolve(js.Tag); done == nil {
				return fmt.Errorf("radio %s: unresolvable completion tag kind=%d", r.addr, js.Tag.Kind)
			}
		}
		r.txQueue = append(r.txQueue, txJob{f: f, ch: js.Ch, attempt: js.Attempt, done: done, tag: js.Tag})
	}
	r.txBusy = st.TxBusy
	r.txF = nil
	r.txDoneEv = sim.Event{}
	if st.TxBusy {
		if len(r.txQueue) == 0 || !st.TxDone.Pending || !wifi.Tunable(st.TxCh) {
			return fmt.Errorf("radio %s: transmitting with no queue, no completion or an invalid channel", r.addr)
		}
		// The in-flight frame IS the queue head: txComplete delivers txF
		// and retries/pops the head job, so the identity must hold.
		r.txF = r.txQueue[0].f
		r.txCh, r.txDur = st.TxCh, st.TxDur
		r.txDoneEv = st.TxDone.Restore(r.m.kernel, r, timerTxDone)
	}
	return nil
}

// BurstState is one channel's fault-injected additive loss.
type BurstState struct {
	Ch    int
	Extra float64
}

// ActiveTxState is one in-flight transmission tracked for
// hidden-terminal checks.
type ActiveTxState struct {
	From       wifi.Addr
	Ch         int
	Start, End time.Duration
	Pos        geo.Point
}

// MediumState is the medium's complete checkpointable state: counters,
// active interference episodes, hidden-terminal tracking, and every
// radio in registration order. The loss RNG rides in the kernel's
// stream export, not here.
type MediumState struct {
	Stats  Stats
	Burst  []BurstState
	Active []ActiveTxState
	Radios []RadioState
}

// ExportState captures the medium and all its radios for a checkpoint.
func (m *Medium) ExportState() (MediumState, error) {
	st := MediumState{Stats: m.stats}
	for ch, extra := range m.burst {
		st.Burst = append(st.Burst, BurstState{Ch: ch, Extra: extra})
	}
	sort.Slice(st.Burst, func(i, j int) bool { return st.Burst[i].Ch < st.Burst[j].Ch })
	for _, a := range m.active {
		st.Active = append(st.Active, ActiveTxState{
			From: a.from.addr, Ch: a.ch, Start: a.start, End: a.end, Pos: a.pos,
		})
	}
	st.Radios = make([]RadioState, 0, len(m.radios))
	for _, r := range m.radios {
		rs, err := r.ExportState()
		if err != nil {
			return MediumState{}, err
		}
		st.Radios = append(st.Radios, rs)
	}
	return st, nil
}

// RestoreState rewinds a freshly built medium to a checkpointed state.
// The rebuilt world must have registered the same radios in the same
// order (deterministic construction guarantees it); the per-radio
// address check catches drift. resolve rebuilds tagged completion
// callbacks, keyed by the owning radio's address.
func (m *Medium) RestoreState(st MediumState, resolve func(owner wifi.Addr, tag TxTag) func(delivered bool)) error {
	if len(st.Radios) != len(m.radios) {
		return fmt.Errorf("medium restore: %d radios in state, %d registered", len(st.Radios), len(m.radios))
	}
	m.stats = st.Stats
	m.burst = nil
	for _, b := range st.Burst {
		m.SetBurstLoss(b.Ch, b.Extra)
	}
	m.active = m.active[:0]
	for _, a := range st.Active {
		if !wifi.ValidChannel(a.Ch) {
			return fmt.Errorf("medium restore: active transmission on invalid channel %d", a.Ch)
		}
		from := m.byAddr[a.From]
		if from == nil {
			return fmt.Errorf("medium restore: active transmitter %s not registered", a.From)
		}
		m.active = append(m.active, activeTx{from: from, ch: a.Ch, start: a.Start, end: a.End, pos: a.Pos})
	}
	for i, r := range m.radios {
		rs := st.Radios[i]
		var rr func(TxTag) func(bool)
		if resolve != nil {
			owner := r.addr
			rr = func(tag TxTag) func(bool) { return resolve(owner, tag) }
		}
		if err := r.RestoreState(rs, rr); err != nil {
			return err
		}
	}
	return nil
}
