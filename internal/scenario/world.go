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
	"spider/internal/fault"
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

	// Free lists shared by everything in the world, all single-threaded
	// with its kernel: segPool recycles the clients' TCP segments (data
	// and uplink ACKs), and the carrier pools the carriers that hold
	// segments across a backhaul, AP management responses across the
	// processing delay and DHCP replies across the think time. A
	// migrating client drains its carriers here before it leaves
	// (RemoveClient), so no pooled object crosses to another world's
	// goroutine.
	segPool      tcpsim.SegPool
	segCarriers  sim.CarrierPool[transit]
	respCarriers sim.CarrierPool[*wifi.Frame]
	dhcpCarriers sim.CarrierPool[dhcp.Message]

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
	ap.SetRespPool(&w.respCarriers)
	ap.DHCPServer().SetRespPool(&w.dhcpCarriers)
	node := &APNode{
		AP:   ap,
		Link: backhaul.NewLink(w.Kernel, backhaul.Config{RateKbps: spec.BackhaulKbps, Latency: spec.BackhaulLat, QueueBytes: spec.QueueBytes}),
		Spec: spec,
	}
	w.APs = append(w.APs, node)
	w.byBSS[ap.Addr()] = node
	// Uplink router: TCP ACKs from any client traverse the backhaul to
	// that client's flow server. The segment is copied out of the (maybe
	// pooled) frame body into the world's segment pool before the
	// backhaul delay, and recycled once the sender has consumed it.
	ap.SetUplinkHandler(func(from wifi.Addr, db *wifi.DataBody) {
		if db.Proto != wifi.ProtoTCP {
			return
		}
		client, ok := w.byMAC[from]
		if !ok {
			return
		}
		seg := w.segPool.Get()
		if !tcpsim.DecodeSegmentInto(seg, db.Header) {
			w.segPool.Put(seg)
			return
		}
		client.carry(node, seg, segUp)
	})
	return node
}

// transit is one TCP segment crossing node's backhaul.
type transit struct {
	node *APNode
	seg  *tcpsim.Segment
}

// Backhaul carrier kinds: the direction of the traversal.
const (
	segUp   uint8 = iota // an ACK reaches the flow's server
	segDown              // a data segment reaches the AP
)

// carry sends seg across node's backhaul in kind's direction, to reach
// Arrive at the far end. A segment the link refuses goes straight back
// to the world's pool.
func (c *Client) carry(node *APNode, seg *tcpsim.Segment, kind uint8) {
	if at, ok := node.Link.Send(kind == segDown, seg.WireSize()); ok {
		c.segs.ArmAt(at, transit{node, seg}, kind)
		return
	}
	c.World.segPool.Put(seg)
}

// Arrive implements sim.CarrierOwner: a segment's backhaul traversal
// ends. An uplink ACK goes to the live sender (if the association still
// exists), a data segment through the AP toward the client; either way
// the segment then goes back to the world's pool.
func (c *Client) Arrive(t transit, kind uint8) {
	if kind == segDown {
		t.node.AP.Deliver(c.addr, c.bodyFor(t.seg))
	} else if live, ok := c.conns[t.node.AP.Addr()]; ok && live.sender != nil {
		live.sender.HandleAck(t.seg)
	}
	c.World.segPool.Put(t.seg)
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
}

// conn is one association's live traffic state.
type conn struct {
	node      *APNode
	sender    *tcpsim.Sender
	receiver  *tcpsim.Receiver
	delivered uint64 // receiver.Delivered() already credited to metrics
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
	sc       clientScalars
	workload Workload
	// Single-session web workload state.
	webActive bool
	webPage   int64

	// Web accumulates page-level outcomes when a WebWorkload is set.
	Web WebStats

	// Logs consumed by experiments.
	Joins  []JoinEvent
	Assocs []AssocEvent

	// segs holds the client's segments in flight across a backhaul,
	// on carriers from its world's pool. dlSeg is the downlink decode
	// scratch.
	segs  sim.Carriers[transit]
	dlSeg tcpsim.Segment

	// injector is the fault injector of the client under test
	// (ApplyChaos), nil on every other client: the driver's recoveries
	// and channel-switch reset faults reach it through the client.
	injector *fault.Injector
}

// clientScalars are a client's plain evolving fields, checkpointed
// whole.
type clientScalars struct {
	NextFlow uint32
	// TCPClosed accumulates sender counters from flows already replaced
	// or torn down, so TCPStats covers the client's whole history.
	TCPClosed TCPStats
	// StatsClosed / InvClosed carry the counters of drivers this client
	// has already retired (one per shard migration), so Stats and
	// InvariantsTotal cover the whole life regardless of which world the
	// client currently resides in.
	StatsClosed core.Stats
	InvClosed   uint64
}

// Addr returns the client's MAC address, stable across migrations.
func (c *Client) Addr() wifi.Addr { return c.addr }

// Stats returns the client's lifetime driver counters: every retired
// driver plus the live one.
func (c *Client) Stats() core.Stats { return c.sc.StatsClosed.Add(c.Driver.Stats()) }

// InvariantsTotal returns the client's lifetime invariant-violation
// count across every driver it has run on.
func (c *Client) InvariantsTotal() uint64 { return c.sc.InvClosed + c.Driver.Invariants().Total() }

// TCPStats aggregates one client's TCP sender counters across every
// flow it has ever run — live senders plus those already closed.
type TCPStats = tcpsim.Stats

// TCPStats returns the client's all-time TCP totals (closed flows plus
// whatever is live right now).
func (c *Client) TCPStats() TCPStats {
	t := c.sc.TCPClosed
	for _, cn := range c.conns {
		t = t.Add(cn.sender.Stats())
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
	c.segs.Init(w.Kernel, c)
	c.segs.SetPool(&w.segCarriers)
	c.Driver = core.NewDriver(w.Medium, cfg, c.addr, mob, c)
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
	// Drain in-flight backhaul carriers. They would otherwise fire in
	// THIS world's kernel after the client moved on — touching the
	// client's new world (its medium frame pool) from the old world's
	// goroutine. The carriers and their segments go back to this
	// world's free lists; the segments die as if the link dropped them.
	c.segs.Drain(func(t transit) { w.segPool.Put(t.seg) })
	c.Driver.Shutdown()
	c.sc.StatsClosed = c.sc.StatsClosed.Add(c.Driver.Stats())
	c.sc.InvClosed += c.Driver.Invariants().Total()
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

// Connected implements core.Host: the client's workload opens on the
// newly connected AP, and then the fault injector, if any, credits its
// recoveries.
func (c *Client) Connected(ifc *core.Iface) {
	c.openFlow(ifc)
	if c.injector != nil {
		c.injector.DriverConnected()
	}
}

// AssocResult implements core.Host: the outcome joins the client's
// association log.
func (c *Client) AssocResult(bssid wifi.Addr, res mac.AssocResult) {
	c.Assocs = append(c.Assocs, AssocEvent{BSSID: bssid, Res: res})
}

// JoinResult implements core.Host: the outcome joins the client's join
// log.
func (c *Client) JoinResult(bssid wifi.Addr, ok bool, elapsed time.Duration) {
	c.Joins = append(c.Joins, JoinEvent{BSSID: bssid, Success: ok, Elapsed: elapsed, At: c.World.Kernel.Now()})
}

// ResetDelay implements core.Host: the fault injector, if any, decides
// whether this channel switch's hardware reset is stretched.
func (c *Client) ResetDelay() time.Duration {
	if c.injector == nil {
		return 0
	}
	return c.injector.ResetDelay()
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

// Disconnected implements core.Host: the traffic is torn down with the
// association.
func (c *Client) Disconnected(ifc *core.Iface) {
	cn, ok := c.conns[ifc.BSSID()]
	if !ok {
		return
	}
	inFlight := cn.sender != nil && !cn.sender.Done()
	if cn.sender != nil {
		cn.sender.Stop()
	}
	c.sc.TCPClosed = c.sc.TCPClosed.Add(cn.sender.Stats())
	// Remove the conn BEFORE the abort hook runs: workloads resume on
	// "any live association" and must not pick the one being torn down.
	delete(c.conns, ifc.BSSID())
	if inFlight && cn.onAbort != nil {
		cn.onAbort()
	}
}

// Downlink implements core.Host: TCP segments are delivered to the
// per-connection receiver; newly in-order bytes are credited to the
// metrics recorder and a cumulative ACK is sent back up through the AP.
func (c *Client) Downlink(bssid wifi.Addr, db *wifi.DataBody) {
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
	if d := cn.receiver.Delivered() - cn.delivered; d > 0 {
		c.Rec.Add(c.World.Kernel.Now(), int(d))
		cn.delivered = cn.receiver.Delivered()
	}
	c.Driver.Uplink(bssid, c.bodyFor(ack))
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
