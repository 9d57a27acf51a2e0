package dhcp

import (
	"fmt"
	"sort"
	"time"

	"spider/internal/sim"
	"spider/internal/wifi"
)

// BindingState is one lease in a server checkpoint.
type BindingState struct {
	MAC     wifi.Addr
	IP      IP
	Expires time.Duration
}

// PendingRespState is one scheduled-but-unsent server response.
type PendingRespState struct {
	Msg  Message
	Kind uint8
	Ev   sim.EventState
}

// ServerState is a Server's complete checkpointable state. Chaos
// configuration is not part of it: the fault injector re-applies active
// chaos after component restore, from its own recorded episode state.
type ServerState struct {
	serverScalars
	ServerStats
	Bindings []BindingState
	Pending  []PendingRespState
}

// ExportState captures the server for a checkpoint. Bindings sort by
// MAC and pending responses by (at, seq), so the export is canonical
// regardless of map iteration or free-list history.
func (s *Server) ExportState() (ServerState, error) {
	replies, err := s.replies.Capture()
	if err != nil {
		return ServerState{}, fmt.Errorf("dhcp: server %d: %w", s.cfg.ServerID, err)
	}
	st := ServerState{serverScalars: s.sc, ServerStats: s.ServerStats}
	for mac, b := range s.bindings {
		st.Bindings = append(st.Bindings, BindingState{MAC: mac, IP: b.ip, Expires: b.expires})
	}
	sort.Slice(st.Bindings, func(i, j int) bool {
		return st.Bindings[i].MAC.Less(st.Bindings[j].MAC)
	})
	for _, r := range replies {
		st.Pending = append(st.Pending, PendingRespState{Msg: r.P, Kind: r.Kind, Ev: r.Ev})
	}
	return st, nil
}

// RestoreState rewinds a freshly built server to a checkpointed state,
// re-arming every pending response with its recorded (at, seq). Call
// after the owning kernel's BeginRestore. A pending response whose kind
// is not offer, ack or nak is refused: it would be sent uncounted.
func (s *Server) RestoreState(st ServerState) error {
	s.sc, s.ServerStats = st.serverScalars, st.ServerStats
	s.bindings = make(map[wifi.Addr]binding, len(st.Bindings))
	for _, b := range st.Bindings {
		s.bindings[b.MAC] = binding{ip: b.IP, expires: b.Expires}
	}
	s.replies.Drain(nil)
	for _, p := range st.Pending {
		if p.Kind > respNak {
			return fmt.Errorf("dhcp: restoring a pending response of unknown kind %d", p.Kind)
		}
		if err := s.replies.Restore(p.Ev, p.Msg, p.Kind); err != nil {
			return fmt.Errorf("dhcp: restoring a pending response: %w", err)
		}
	}
	return nil
}

// ClientState is a DHCP client's complete checkpointable state.
type ClientState struct {
	clientScalars
	Retx     sim.EventState
	Deadline sim.EventState
}

// ExportState captures the client for a checkpoint.
func (c *Client) ExportState() ClientState {
	return ClientState{
		clientScalars: c.sc,
		Retx:          sim.CaptureEvent(c.retxTimer),
		Deadline:      sim.CaptureEvent(c.deadline),
	}
}

// RestoreState rewinds the client to a checkpointed state, re-arming
// its timers with their recorded identities.
func (c *Client) RestoreState(st ClientState) {
	c.sc = st.clientScalars
	c.stopTimers()
	c.retxTimer = st.Retx.Restore(c.kernel, c, timerRetx)
	c.deadline = st.Deadline.Restore(c.kernel, c, timerDeadline)
}
