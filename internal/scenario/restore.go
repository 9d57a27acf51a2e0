package scenario

import (
	"fmt"
	"sort"

	"spider/internal/backhaul"
	"spider/internal/core"
	"spider/internal/mac"
	"spider/internal/metrics"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/tcpsim"
	"spider/internal/wifi"
)

// LinkSegState is one TCP segment in flight across a backhaul link: the
// wire encoding plus the delivery event's recorded identity.
type LinkSegState struct {
	BSSID wifi.Addr
	Seg   []byte
	Ev    sim.EventState
}

// ConnState is one live association's traffic state. The flow identity
// lives here (tcpsim deliberately leaves it to the owner); only bulk
// flows checkpoint, so the sender rebuilds as an unbounded download with
// no completion hook.
type ConnState struct {
	BSSID     wifi.Addr
	FlowID    uint32
	Delivered uint64
	Sender    tcpsim.SenderState
	Receiver  tcpsim.ReceiverState
}

// ClientState is a mobile client's complete checkpointable state:
// driver, metrics, logs, lifetime ledgers, live flows, and every
// segment in flight across a backhaul.
type ClientState struct {
	Addr wifi.Addr
	clientScalars

	Driver core.DriverState
	Rec    metrics.RecorderState

	Joins  []JoinEvent
	Assocs []AssocEvent

	Conns    []ConnState    // sorted by BSSID
	UpLive   []LinkSegState // sorted by (At, Seq)
	DownLive []LinkSegState
}

// APNodeState is one placed AP: the MAC/DHCP machine plus its wired
// link. The AP's radio state restores separately through the medium.
type APNodeState struct {
	AP   mac.APState
	Link backhaul.State
}

// WorldState is a composed world's complete checkpointable state, minus
// the kernel's own clock/RNG state (the orchestrating layer owns those:
// BeginRestore before, RestoreRNGs after).
type WorldState struct {
	NextAP  uint32
	APs     []APNodeState // construction order
	Clients []ClientState // w.Clients order
	Medium  radio.MediumState
}

func exportLinkSegs(live []*linkSeg) ([]LinkSegState, error) {
	out := make([]LinkSegState, 0, len(live))
	for _, ls := range live {
		ev := sim.CaptureEvent(ls.ev)
		if !ev.Pending {
			return nil, fmt.Errorf("scenario: tracked backhaul segment has no pending delivery")
		}
		out = append(out, LinkSegState{BSSID: ls.node.AP.Addr(), Seg: ls.seg.AppendEncode(nil), Ev: ev})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ev.Before(out[j].Ev) })
	return out, nil
}

// ExportState captures the client for a checkpoint. Clients running a
// WebWorkload refuse: the page loop lives in closures the checkpoint
// cannot reach (documented limitation; the metro scenarios use bulk).
func (c *Client) ExportState() (ClientState, error) {
	if _, web := c.workload.(*WebWorkload); web || c.webActive {
		return ClientState{}, fmt.Errorf("scenario: client %s runs a web workload; not checkpointable", c.addr)
	}
	st := ClientState{
		Addr: c.addr, clientScalars: c.sc,
		Driver: c.Driver.ExportState(),
		Rec:    c.Rec.ExportState(),
		Joins:  append([]JoinEvent(nil), c.Joins...),
		Assocs: append([]AssocEvent(nil), c.Assocs...),
	}
	for b, cn := range c.conns {
		if cn.onAbort != nil {
			return ClientState{}, fmt.Errorf("scenario: client %s has a workload abort hook; not checkpointable", c.addr)
		}
		if cn.sender == nil || cn.receiver == nil {
			return ClientState{}, fmt.Errorf("scenario: client %s connection %s has no flow", c.addr, b)
		}
		st.Conns = append(st.Conns, ConnState{
			BSSID: b, FlowID: cn.sender.FlowID(), Delivered: cn.delivered,
			Sender: cn.sender.ExportState(), Receiver: cn.receiver.ExportState(),
		})
	}
	sort.Slice(st.Conns, func(i, j int) bool { return st.Conns[i].BSSID.Less(st.Conns[j].BSSID) })
	var err error
	if st.UpLive, err = exportLinkSegs(c.upLive); err != nil {
		return ClientState{}, err
	}
	if st.DownLive, err = exportLinkSegs(c.downLive); err != nil {
		return ClientState{}, err
	}
	return st, nil
}

func (c *Client) restoreLinkSegs(states []LinkSegState, live *[]*linkSeg, kind uint8) error {
	w := c.World
	for _, lss := range states {
		node := w.byBSS[lss.BSSID]
		if node == nil {
			return fmt.Errorf("scenario: restored segment in flight to unknown AP %s", lss.BSSID)
		}
		seg := w.segPool.Get()
		if !tcpsim.DecodeSegmentInto(seg, lss.Seg) {
			w.segPool.Put(seg)
			return fmt.Errorf("scenario: restoring in-flight segment for %s: bad encoding", c.addr)
		}
		ls := w.getLinkSeg(c, node, seg)
		ls.ev = lss.Ev.Restore(w.Kernel, ls, kind)
		c.trackSeg(live, ls)
	}
	return nil
}

// RestoreState rewinds the client to a checkpointed state. The world's
// APs must already be restored (flow rebuilding references them); the
// medium restores after every client (PSM tag rebinding needs the
// drivers back).
func (c *Client) RestoreState(st ClientState) error {
	if c.addr != st.Addr {
		return fmt.Errorf("scenario: state for client %s applied to %s", st.Addr, c.addr)
	}
	c.sc = st.clientScalars
	if err := c.Driver.RestoreState(st.Driver); err != nil {
		return err
	}
	c.Rec.RestoreState(st.Rec)
	c.Joins = append(c.Joins[:0], st.Joins...)
	c.Assocs = append(c.Assocs[:0], st.Assocs...)

	c.conns = make(map[wifi.Addr]*conn, len(st.Conns))
	for _, ks := range st.Conns {
		node := c.World.byBSS[ks.BSSID]
		if node == nil {
			return fmt.Errorf("scenario: restored connection to unknown AP %s", ks.BSSID)
		}
		cn := &conn{node: node, delivered: ks.Delivered}
		cn.receiver = tcpsim.NewReceiver(ks.FlowID)
		cn.receiver.RestoreState(ks.Receiver)
		cn.sender = c.downlinkSender(node, ks.FlowID, -1, nil)
		cn.sender.RestoreState(ks.Sender)
		c.conns[ks.BSSID] = cn
	}

	c.upLive, c.downLive = c.upLive[:0], c.downLive[:0]
	if err := c.restoreLinkSegs(st.UpLive, &c.upLive, segUp); err != nil {
		return err
	}
	return c.restoreLinkSegs(st.DownLive, &c.downLive, segDown)
}

// ExportState captures the world for a checkpoint: APs in construction
// order, clients in residence order, then the shared medium.
func (w *World) ExportState() (WorldState, error) {
	st := WorldState{NextAP: w.nextAP}
	for _, node := range w.APs {
		st.APs = append(st.APs, APNodeState{AP: node.AP.ExportState(), Link: node.Link.ExportState()})
	}
	for _, c := range w.Clients {
		cs, err := c.ExportState()
		if err != nil {
			return WorldState{}, err
		}
		st.Clients = append(st.Clients, cs)
	}
	ms, err := w.Medium.ExportState()
	if err != nil {
		return WorldState{}, err
	}
	st.Medium = ms
	return st, nil
}

// RestoreState rewinds a freshly built world to a checkpointed state.
// The rebuild must have produced the same APs and clients in the same
// order (deterministic construction plus migration replay guarantee
// it). Call between the kernel's BeginRestore and RestoreRNGs: the APs
// restore first, then every client, then the medium — whose tagged
// queue entries rebind through the now-restored AP tables and drivers.
func (w *World) RestoreState(st WorldState) error {
	if len(st.APs) != len(w.APs) {
		return fmt.Errorf("scenario: %d APs in state, %d built", len(st.APs), len(w.APs))
	}
	if len(st.Clients) != len(w.Clients) {
		return fmt.Errorf("scenario: %d clients in state, %d built", len(st.Clients), len(w.Clients))
	}
	w.nextAP = st.NextAP
	for i, as := range st.APs {
		node := w.APs[i]
		if err := node.AP.RestoreState(as.AP); err != nil {
			return err
		}
		node.Link.RestoreState(as.Link)
	}
	for i, cs := range st.Clients {
		if err := w.Clients[i].RestoreState(cs); err != nil {
			return err
		}
	}
	return w.Medium.RestoreState(st.Medium, func(owner wifi.Addr, tag radio.TxTag) func(bool) {
		switch tag.Kind {
		case radio.TagAPPump:
			if node := w.byBSS[owner]; node != nil {
				return node.AP.PumpDone(tag.Addr)
			}
		case radio.TagPSM:
			if c := w.byMAC[owner]; c != nil {
				return c.Driver.PSMDone(tag.Gen)
			}
		}
		return nil
	})
}
