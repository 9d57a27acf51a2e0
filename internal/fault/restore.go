package fault

import (
	"fmt"
	"sort"
	"time"

	"spider/internal/sim"
)

// EpisodeState is one recurring fault timeline's position: healthy with
// the next start pending, or mid-fault with the stop pending.
type EpisodeState struct {
	Key     string
	InFault bool
	T0      time.Duration
	Ev      sim.EventState
}

// OutstandingState is one class's unrecovered fault start times.
type OutstandingState struct {
	Class  string
	Starts []time.Duration
}

// InjectorState is an Injector's complete checkpointable state. The
// config and attachments are reconstructed by rebuilding the world; this
// carries the ledger, every fault stream's position, and each episode's
// phase.
type InjectorState struct {
	Classes     []ClassStat
	Outstanding []OutstandingState
	Streams     []sim.RNGPos // keyed streamKey(class, target); positions > 0 only
	injectorScalars
	Episodes []EpisodeState
}

// ExportState captures the injector for a checkpoint. Injectors that
// ran a scripted Timeline refuse — the DSL's entries live in closures
// the snapshot cannot reach (documented limitation; profile-driven
// chaos checkpoints fully).
func (in *Injector) ExportState() (InjectorState, error) {
	if in.timelineUsed {
		return InjectorState{}, fmt.Errorf("fault: scripted timelines are not checkpointable")
	}
	st := InjectorState{Classes: in.Snapshot(), injectorScalars: in.sc}
	for _, class := range Classes {
		if o := in.outstanding[class]; len(o) > 0 {
			st.Outstanding = append(st.Outstanding,
				OutstandingState{Class: class, Starts: append([]time.Duration(nil), o...)})
		}
	}
	for key, fs := range in.streams {
		if fs.src.Steps() > 0 {
			st.Streams = append(st.Streams, sim.RNGPos{Name: key, N: fs.src.Steps()})
		}
	}
	sort.Slice(st.Streams, func(i, j int) bool { return st.Streams[i].Name < st.Streams[j].Name })
	for _, ep := range in.episodes {
		st.Episodes = append(st.Episodes, EpisodeState{
			Key: ep.key, InFault: ep.inFault, T0: ep.t0, Ev: sim.CaptureEvent(ep.ev),
		})
	}
	return st, nil
}

// RestoreState rewinds a freshly attached injector to a checkpointed
// state. The rebuild must have attached the same targets (episodes
// match by stream key); construction-time gap draws are cancelled by
// rewinding every stream in place — the rand.Rand pointers handed to
// DHCP servers and the reset-fault stream stay valid. Episodes re-arm with their
// recorded event identities; a mid-fault episode re-arms its stop, NOT
// its start effect — the faulted component state (AP down, link
// blackholed, channel burst) restores through that component.
// Call after the owning kernel's BeginRestore.
func (in *Injector) RestoreState(st InjectorState) error {
	for _, cs := range st.Classes {
		c := in.classes[cs.Class]
		if c == nil {
			return fmt.Errorf("fault: restored unknown class %q", cs.Class)
		}
		*c = cs
	}
	for k := range in.outstanding {
		delete(in.outstanding, k)
	}
	for _, o := range st.Outstanding {
		in.outstanding[o.Class] = append([]time.Duration(nil), o.Starts...)
	}
	in.sc = st.injectorScalars

	for _, fs := range in.streams {
		fs.src.Reseed(fs.seed, 0)
	}
	for _, p := range st.Streams {
		fs := in.streams[p.Name]
		if fs == nil {
			return fmt.Errorf("fault: restored stream %q was never attached", p.Name)
		}
		fs.src.Reseed(fs.seed, p.N)
	}

	if len(st.Episodes) != len(in.episodes) {
		return fmt.Errorf("fault: %d episodes in state, %d attached", len(st.Episodes), len(in.episodes))
	}
	byKey := make(map[string]*episode, len(in.episodes))
	for _, ep := range in.episodes {
		byKey[ep.key] = ep
		ep.ev, ep.inFault, ep.t0 = sim.Event{}, false, 0
	}
	for _, es := range st.Episodes {
		ep := byKey[es.Key]
		if ep == nil {
			return fmt.Errorf("fault: restored episode %q was never attached", es.Key)
		}
		ep.inFault, ep.t0 = es.InFault, es.T0
		kind := episodeStart
		if es.InFault {
			kind = episodeStop
		}
		ep.ev = es.Ev.Restore(in.kernel, ep, kind)
	}
	return nil
}
