// Package scenario composes the substrates into runnable worlds: a
// shared medium, access points with backhauls and DHCP servers, mobile
// clients running the Spider driver, and the TCP data path between
// content servers and clients. The experiment harness builds every
// table and figure on top of these worlds.
package scenario

import (
	"math"
	"time"

	"spider/internal/backhaul"
	"spider/internal/core"
	"spider/internal/dhcp"
	"spider/internal/geo"
	"spider/internal/mac"
	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/tcpsim"
	"spider/internal/wifi"
)

// APSpec describes one access point to place in a world.
type APSpec struct {
	// ID fixes the AP's global identity (MAC address, DHCP subnet).
	// Zero auto-assigns the next world-local id; sharded builds pass the
	// planned global id so an AP's addresses do not depend on which tile
	// it landed in.
	ID           uint32
	Pos          geo.Point
	Channel      int
	SSID         string
	BackhaulKbps int
	BackhaulLat  time.Duration
	// QueueBytes bounds the backhaul shaper queue. Consumer CPE is
	// deeply buffered; defaults to 256 KB.
	QueueBytes int
	// OfferLatency/AckLatency override the DHCP server think-times;
	// nil uses dhcp.DefaultServerConfig (the paper-calibrated spread).
	OfferLatency sim.Dist
	AckLatency   sim.Dist
}

// APNode is a placed AP with its wired side.
type APNode struct {
	AP   *mac.AP
	Link *backhaul.Link
	Spec APSpec
}

// World is one composed simulation.
type World struct {
	Kernel *sim.Kernel
	Medium *radio.Medium

	APs    []*APNode
	byBSS  map[wifi.Addr]*APNode
	byMAC  map[wifi.Addr]*Client
	nextAP uint32

	Clients []*Client

	// obs, when set via AttachObs, is wired into every component added
	// afterwards (and everything that existed at attach time).
	obs *obs.Obs
}

// NewWorld creates an empty world on a fresh kernel.
func NewWorld(seed int64, radioCfg radio.Config) *World {
	k := sim.NewKernel(seed)
	return &World{
		Kernel: k,
		Medium: radio.NewMedium(k, radioCfg),
		byBSS:  make(map[wifi.Addr]*APNode),
		byMAC:  make(map[wifi.Addr]*Client),
	}
}

// AddAP places an access point and wires its backhaul and uplink path.
func (w *World) AddAP(spec APSpec) *APNode {
	id := spec.ID
	if id == 0 {
		w.nextAP++
		id = w.nextAP
	}
	if spec.SSID == "" {
		spec.SSID = "open"
	}
	if spec.BackhaulKbps <= 0 {
		spec.BackhaulKbps = 2000
	}
	if spec.BackhaulLat <= 0 {
		spec.BackhaulLat = 20 * time.Millisecond
	}
	if spec.QueueBytes <= 0 {
		spec.QueueBytes = 256 * 1024
	}
	apCfg := mac.DefaultAPConfig(spec.SSID, spec.Channel)
	apCfg.BackhaulKbps = spec.BackhaulKbps
	apCfg.DHCP = dhcp.DefaultServerConfig(id)
	switch {
	case spec.OfferLatency != nil:
		apCfg.DHCP.OfferLatency = spec.OfferLatency
		if spec.AckLatency != nil {
			apCfg.DHCP.AckLatency = spec.AckLatency
		}
	default:
		// Organic APs have a DHCP latency *personality*: most answer in
		// tens of milliseconds, but a stable minority (overloaded CPE,
		// upstream relays) consistently take seconds. The split is what
		// makes reduced client timers a real trade-off: they join fast
		// APs much faster and slow APs not at all (§4.5, Table 3).
		r := w.Kernel.RNG("scenario.dhcp-personality")
		if r.Float64() < 0.25 {
			apCfg.DHCP.OfferLatency = sim.LogNormal{Mu: math.Log(1.2), Sigma: 0.4, Cap: 10 * time.Second}
			apCfg.DHCP.AckLatency = sim.LogNormal{Mu: math.Log(0.4), Sigma: 0.4, Cap: 5 * time.Second}
		} else {
			apCfg.DHCP.OfferLatency = sim.LogNormal{Mu: math.Log(0.04), Sigma: 0.8, Cap: 5 * time.Second}
			apCfg.DHCP.AckLatency = sim.LogNormal{Mu: math.Log(0.02), Sigma: 0.8, Cap: 5 * time.Second}
		}
	}
	ap := mac.NewAPAt(w.Medium, apCfg, wifi.NewAddr(0xA0, id), spec.Pos, id)
	node := &APNode{
		AP:   ap,
		Link: backhaul.NewLink(w.Kernel, backhaul.Config{RateKbps: spec.BackhaulKbps, Latency: spec.BackhaulLat, QueueBytes: spec.QueueBytes}),
		Spec: spec,
	}
	w.APs = append(w.APs, node)
	w.byBSS[ap.Addr()] = node
	// Uplink router: TCP ACKs from any client traverse the backhaul to
	// that client's flow server. The segment is copied out of the (maybe
	// pooled) frame body into the client's segment pool before the
	// backhaul delay, and recycled once the sender has consumed it.
	ap.SetUplinkHandler(func(from wifi.Addr, db *wifi.DataBody) {
		if db.Proto != wifi.ProtoTCP {
			return
		}
		client, ok := w.byMAC[from]
		if !ok {
			return
		}
		seg := client.segPool.Get()
		if !tcpsim.DecodeSegmentInto(seg, db.Header) {
			client.segPool.Put(seg)
			return
		}
		up := client.getLinkSeg(&client.upFree, node, seg)
		if ev, ok := node.Link.UpEv(seg.WireSize(), up.upFn); ok {
			up.ev = ev
			client.trackSeg(&client.upLive, up)
		}
	})
	return node
}

// linkSeg carries one segment across a backhaul link delay. It exists
// so the per-segment callbacks handed to Link.Up/Link.Down are cached
// method values on a recycled object instead of fresh closures — the
// TCP data path schedules one per segment, every segment.
type linkSeg struct {
	c    *Client
	node *APNode
	seg  *tcpsim.Segment
	// ev/idx track the in-flight delivery for checkpoints: ev is the
	// kernel event identity, idx the carrier's slot in the client's live
	// registry (upLive/downLive).
	ev           sim.Event
	idx          int
	upFn, downFn func()
}

// trackSeg registers an armed carrier in the given live registry.
func (c *Client) trackSeg(live *[]*linkSeg, ls *linkSeg) {
	ls.idx = len(*live)
	*live = append(*live, ls)
}

// untrackSeg removes a completed carrier (swap-remove; order is
// irrelevant, exports sort by event identity).
func (c *Client) untrackSeg(live *[]*linkSeg, ls *linkSeg) {
	l := *live
	last := len(l) - 1
	if ls.idx <= last && l[ls.idx] == ls {
		l[ls.idx] = l[last]
		l[ls.idx].idx = ls.idx
		*live = l[:last]
	}
}

// drainLinkSegs cancels every in-flight carrier and recycles it: the
// segment dies with the backhaul traversal, as if the link dropped it.
func (c *Client) drainLinkSegs(live, free *[]*linkSeg) {
	for _, ls := range *live {
		ls.ev.Cancel()
		c.segPool.Put(ls.seg)
		ls.node, ls.seg, ls.ev = nil, nil, sim.Event{}
		*free = append(*free, ls)
	}
	*live = (*live)[:0]
}

// getLinkSeg pops a carrier from the given free list (or builds one,
// caching its method-value callbacks) and arms it.
func (c *Client) getLinkSeg(free *[]*linkSeg, node *APNode, seg *tcpsim.Segment) *linkSeg {
	var ls *linkSeg
	if n := len(*free); n > 0 {
		ls = (*free)[n-1]
		*free = (*free)[:n-1]
	} else {
		ls = &linkSeg{c: c}
		ls.upFn = ls.up
		ls.downFn = ls.down
	}
	ls.node, ls.seg = node, seg
	return ls
}

// up completes an uplink ACK's backhaul traversal: hand it to the live
// sender (if the association still exists) and recycle everything.
func (ls *linkSeg) up() {
	c, node, seg := ls.c, ls.node, ls.seg
	c.untrackSeg(&c.upLive, ls)
	ls.node, ls.seg, ls.ev = nil, nil, sim.Event{}
	c.upFree = append(c.upFree, ls)
	if live, ok := c.conns[node.AP.Addr()]; ok && live.sender != nil {
		live.sender.HandleAck(seg)
	}
	c.segPool.Put(seg)
}

// down completes a data segment's backhaul traversal: deliver it
// through the AP toward the client and recycle the segment.
func (ls *linkSeg) down() {
	c, node, seg := ls.c, ls.node, ls.seg
	c.untrackSeg(&c.downLive, ls)
	ls.node, ls.seg, ls.ev = nil, nil, sim.Event{}
	c.downFree = append(c.downFree, ls)
	node.AP.Deliver(c.addr, c.bodyFor(seg))
	c.segPool.Put(seg)
}

// Run advances the world to the given virtual time.
func (w *World) Run(until time.Duration) { w.Kernel.Run(until) }

// JoinEvent is one completed (or failed) assoc+DHCP join.
type JoinEvent struct {
	BSSID   wifi.Addr
	Success bool
	Elapsed time.Duration
	At      time.Duration
}

// AssocEvent is one link-layer association outcome.
type AssocEvent struct {
	BSSID wifi.Addr
	Res   mac.AssocResult
	At    time.Duration
}

// conn is one association's live traffic state.
type conn struct {
	node      *APNode
	sender    *tcpsim.Sender
	receiver  *tcpsim.Receiver
	delivered uint64 // receiver.Delivered already credited to metrics
	onAbort   func() // workload hook: connection died mid-transfer
}

// Client is a mobile node: Spider driver + metrics + the TCP flow glue.
// On every lease acquisition it opens an unbounded HTTP-like download
// through that AP (the paper's workload: "downloading large files over
// HTTP"); the flow dies with the association.
type Client struct {
	World  *World
	Driver *core.Driver
	Rec    *metrics.Recorder

	addr     wifi.Addr
	conns    map[wifi.Addr]*conn
	nextFlow uint32
	workload Workload
	// Single-session web workload state.
	webActive bool
	webPage   int64

	// Web accumulates page-level outcomes when a WebWorkload is set.
	Web WebStats

	// Logs consumed by experiments.
	Joins  []JoinEvent
	Assocs []AssocEvent

	// tcpClosed accumulates sender counters from flows already replaced
	// or torn down, so TCPStats covers the client's whole history.
	tcpClosed TCPStats
	// segPool recycles the client's TCP segments (data and uplink ACKs);
	// upFree/downFree recycle the backhaul carriers, dlSeg is the
	// downlink decode scratch. All single-threaded with the world.
	segPool          tcpsim.SegPool
	upFree, downFree []*linkSeg
	// upLive/downLive register carriers currently in flight across a
	// backhaul, so checkpoints can capture the pending deliveries.
	upLive, downLive []*linkSeg
	dlSeg            tcpsim.Segment
	// statsClosed / invClosed carry the counters of drivers this client
	// has already retired (one per shard migration), so Stats and
	// InvariantsTotal cover the whole life regardless of which world the
	// client currently resides in.
	statsClosed core.Stats
	invClosed   uint64
}

// Addr returns the client's MAC address, stable across migrations.
func (c *Client) Addr() wifi.Addr { return c.addr }

// Stats returns the client's lifetime driver counters: every retired
// driver plus the live one.
func (c *Client) Stats() core.Stats { return c.statsClosed.Add(c.Driver.Stats()) }

// InvariantsTotal returns the client's lifetime invariant-violation
// count across every driver it has run on.
func (c *Client) InvariantsTotal() uint64 { return c.invClosed + c.Driver.Invariants().Total() }

// TCPStats aggregates one client's TCP sender counters across every
// flow it has ever run — live senders plus those already closed.
type TCPStats struct {
	SegmentsSent uint64
	RetxSegments uint64
	Timeouts     uint64
	FastRetx     uint64
	BytesAcked   uint64
}

func (t *TCPStats) absorb(s *tcpsim.Sender) {
	if s == nil {
		return
	}
	t.SegmentsSent += s.SegmentsSent
	t.RetxSegments += s.RetxSegments
	t.Timeouts += s.Timeouts
	t.FastRetx += s.FastRetx
	t.BytesAcked += s.BytesAcked
}

// TCPStats returns the client's all-time TCP totals (closed flows plus
// whatever is live right now).
func (c *Client) TCPStats() TCPStats {
	t := c.tcpClosed
	for _, cn := range c.conns {
		t.absorb(cn.sender)
	}
	return t
}

// AddClient creates a client with the given driver config and mobility.
func (w *World) AddClient(cfg core.Config, mob geo.Mobility) *Client {
	return w.AddClientAddr(wifi.NewAddr(0xC0, uint32(len(w.Clients)+1)), cfg, mob)
}

// AddClientAddr is AddClient with an explicit MAC address. Sharded
// builds pass the planned global address so a client's identity does
// not depend on which tile it starts in.
func (w *World) AddClientAddr(addr wifi.Addr, cfg core.Config, mob geo.Mobility) *Client {
	c := &Client{
		World: w,
		Rec:   metrics.NewRecorder(time.Second),
		addr:  addr,
		conns: make(map[wifi.Addr]*conn),
	}
	c.attachDriver(w, cfg, mob)
	return c
}

// attachDriver builds a fresh driver for c in world w and registers c
// there — the shared tail of AddClientAddr and AdoptClient.
func (c *Client) attachDriver(w *World, cfg core.Config, mob geo.Mobility) {
	c.World = w
	events := core.Events{
		OnConnected:    c.openFlow,
		OnDisconnected: c.closeFlow,
		OnAssocResult: func(bssid wifi.Addr, res mac.AssocResult) {
			c.Assocs = append(c.Assocs, AssocEvent{BSSID: bssid, Res: res, At: w.Kernel.Now()})
		},
		OnJoinResult: func(bssid wifi.Addr, ok bool, elapsed time.Duration) {
			c.Joins = append(c.Joins, JoinEvent{BSSID: bssid, Success: ok, Elapsed: elapsed, At: w.Kernel.Now()})
		},
	}
	c.Driver = core.NewDriver(w.Medium, cfg, c.addr, mob, events)
	c.Driver.SetDataSink(c.downlink)
	if w.obs != nil {
		c.Driver.AttachObs(w.obs)
	}
	w.Clients = append(w.Clients, c)
	w.byMAC[c.addr] = c
}

// RemoveClient detaches c from this world: the driver is shut down
// (tearing down associations and deauthing its APs), its counters are
// folded into the client's lifetime totals, and the scan table is
// returned for handoff. The client object itself — logs, metrics, TCP
// totals — stays alive for AdoptClient in the destination world.
func (w *World) RemoveClient(c *Client) []core.APRecord {
	recs := c.Driver.ExportAPRecords()
	// Drain in-flight backhaul carriers. Their completions close over
	// this client and would otherwise fire in THIS world's kernel after
	// the client moved on — touching the client's new world (its medium
	// frame pool, its segment pool) from the old world's goroutine.
	c.drainLinkSegs(&c.upLive, &c.upFree)
	c.drainLinkSegs(&c.downLive, &c.downFree)
	c.Driver.Shutdown()
	c.statsClosed = c.statsClosed.Add(c.Driver.Stats())
	c.invClosed += c.Driver.Invariants().Total()
	delete(w.byMAC, c.addr)
	for i, x := range w.Clients {
		if x == c {
			w.Clients = append(w.Clients[:i], w.Clients[i+1:]...)
			break
		}
	}
	return recs
}

// AdoptClient attaches a client removed from another world: a fresh
// driver on this world's medium under the same MAC address, with the
// handed-off scan table imported — records whose AP exists here are
// joinable immediately (warm rejoin via the cached lease), the rest are
// kept as halo history.
func (w *World) AdoptClient(c *Client, cfg core.Config, mob geo.Mobility, recs []core.APRecord) {
	c.conns = make(map[wifi.Addr]*conn)
	c.attachDriver(w, cfg, mob)
	for _, rec := range recs {
		_, local := w.byBSS[rec.BSSID]
		c.Driver.ImportAPRecord(rec, !local)
	}
}

// bodyFor wraps a segment in a data body drawn from the world medium's
// frame pool (fresh under NoPool), encoding into the body's recycled
// header buffer. The body is owned by whatever frame carries it and is
// recycled with that frame at transmit completion.
func (c *Client) bodyFor(seg *tcpsim.Segment) *wifi.DataBody {
	db := c.World.Medium.Pool().Data()
	db.Proto = wifi.ProtoTCP
	db.Header = seg.AppendEncode(db.Header[:0])
	if !seg.IsAck {
		db.VirtualLen = uint16(seg.Len + 20)
	}
	return db
}

// openFlow installs the client's workload on a newly connected AP
// (default: an unbounded HTTP-like bulk download).
func (c *Client) openFlow(ifc *core.Iface) {
	node := c.World.byBSS[ifc.BSSID()]
	if node == nil {
		return
	}
	cn := &conn{node: node}
	c.conns[ifc.BSSID()] = cn
	w := c.workload
	if w == nil {
		w = BulkWorkload{}
	}
	w.onConnect(c, ifc, cn)
}

// closeFlow tears down the traffic when the association dies.
func (c *Client) closeFlow(ifc *core.Iface) {
	cn, ok := c.conns[ifc.BSSID()]
	if !ok {
		return
	}
	inFlight := cn.sender != nil && !cn.sender.Done()
	if cn.sender != nil {
		cn.sender.Stop()
	}
	c.tcpClosed.absorb(cn.sender)
	// Remove the conn BEFORE the abort hook runs: workloads resume on
	// "any live association" and must not pick the one being torn down.
	delete(c.conns, ifc.BSSID())
	if inFlight && cn.onAbort != nil {
		cn.onAbort()
	}
}

// downlink is the driver's data sink: TCP segments are delivered to the
// per-connection receiver; newly in-order bytes are credited to the
// metrics recorder and a cumulative ACK is sent back up through the AP.
func (c *Client) downlink(bssid wifi.Addr, db *wifi.DataBody) {
	cn, ok := c.conns[bssid]
	if !ok || cn.receiver == nil {
		return
	}
	if db.Proto != wifi.ProtoTCP || !tcpsim.DecodeSegmentInto(&c.dlSeg, db.Header) {
		return
	}
	ack := cn.receiver.HandleData(&c.dlSeg)
	if ack == nil {
		return
	}
	if d := cn.receiver.Delivered - cn.delivered; d > 0 {
		c.Rec.Add(c.World.Kernel.Now(), int(d))
		cn.delivered = cn.receiver.Delivered
	}
	c.Driver.Uplink(bssid, c.bodyFor(ack))
}

// ActiveFlows reports how many downloads are currently open.
func (c *Client) ActiveFlows() int { return len(c.conns) }

// FlowInfo exposes a live connection's endpoints for inspection.
type FlowInfo struct {
	BSSID    wifi.Addr
	Sender   *tcpsim.Sender
	Receiver *tcpsim.Receiver
}

// Flows returns the live connections (order unspecified).
func (c *Client) Flows() []FlowInfo {
	out := make([]FlowInfo, 0, len(c.conns))
	for b, cn := range c.conns {
		out = append(out, FlowInfo{BSSID: b, Sender: cn.sender, Receiver: cn.receiver})
	}
	return out
}

// SuccessfulJoins filters the join log.
func (c *Client) SuccessfulJoins() []JoinEvent {
	var out []JoinEvent
	for _, j := range c.Joins {
		if j.Success {
			out = append(out, j)
		}
	}
	return out
}

// JoinFailureRate returns failed/total joins (0 if none attempted).
func (c *Client) JoinFailureRate() float64 {
	if len(c.Joins) == 0 {
		return 0
	}
	fail := 0
	for _, j := range c.Joins {
		if !j.Success {
			fail++
		}
	}
	return float64(fail) / float64(len(c.Joins))
}
