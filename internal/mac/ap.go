// Package mac implements the 802.11 MAC state machines: the access-point
// side (probe/auth/assoc responders, per-client power-save buffering,
// PS-poll drains, an embedded DHCP server) and the client side (the
// multi-step join engine whose interaction with channel schedules the
// paper analyzes).
package mac

import (
	"time"

	"spider/internal/dhcp"
	"spider/internal/geo"
	"spider/internal/metrics"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// APConfig parameterizes one access point.
type APConfig struct {
	SSID    string
	Channel int
	// BeaconInterval is the beacon period (standard 100 ms). Zero
	// disables beacons (useful in unit tests).
	BeaconInterval time.Duration
	// RespDelay is the AP's processing delay before each management
	// response. Consumer APs answer probes and association in tens of
	// milliseconds; the default spread reproduces the paper's ~200 ms
	// median association when combined with client timers and loss.
	RespDelay sim.Dist
	// PSMBufferFrames bounds the per-client power-save buffer.
	PSMBufferFrames int
	// DHCP configures the embedded DHCP server.
	DHCP dhcp.ServerConfig
	// BackhaulKbps is advertised in beacons (offered-bandwidth oracle).
	BackhaulKbps int
}

// DefaultAPConfig returns a typical open consumer AP.
func DefaultAPConfig(ssid string, channel int) APConfig {
	return APConfig{
		SSID:            ssid,
		Channel:         channel,
		BeaconInterval:  100 * time.Millisecond,
		RespDelay:       sim.Uniform{Min: 5 * time.Millisecond, Max: 120 * time.Millisecond},
		PSMBufferFrames: 32, // hardware PS queues are shallow
	}
}

// Management bodies that are the same on every frame are shared,
// read-only values. Receivers only read bodies, and a pool recycles only
// the body kinds it hands out, so nothing ever writes one.
var (
	// authOpenBody is open-system authentication: the client's request
	// and the AP's success response carry the same body.
	authOpenBody = &wifi.AuthBody{}
	// deauthClass3Body is the AP's answer to a class-3 frame from a
	// station that is not associated (reason 7).
	deauthClass3Body = &wifi.DeauthBody{Reason: 7}
)

type apClient struct {
	sc      apClientScalars
	buffer  []*wifi.Frame // PSM-parked frames
	pending []*wifi.Frame // awaiting the radio, one in flight at a time
}

// apClientScalars are an association-table entry's plain fields,
// checkpointed whole.
type apClientScalars struct {
	Associated bool
	AID        uint16
	PSM        bool
	TxBusy     bool
	Draining   bool // PS-poll drain in progress: transmit despite PSM
}

// AP is one access point: radio, MAC state machines, and DHCP server.
// Wired-side traffic enters via Deliver and leaves via the uplink
// handler; the owner (scenario) attaches the backhaul in between.
type AP struct {
	cfg   APConfig
	radio *radio.Radio
	dhcpd *dhcp.Server
	pool  *wifi.Pool // the medium's frame pool (nil under NoPool)
	sc    apScalars
	// dhcpMsg is the uplink DHCP decode scratch; the server copies what
	// it keeps before any latency timer fires. It packs beside sc, so
	// neither leaves padding.
	dhcpMsg dhcp.Message

	// beaconEv is the armed beacon tick, recorded by checkpoints. It
	// fires through the AP itself (Fire), so re-arming it ten times a
	// second per AP allocates nothing.
	beaconEv sim.Event
	// responses holds each management response across the processing
	// delay; its carriers are recycled, so scheduling a response
	// allocates nothing in steady state. It also holds the AP's kernel
	// (see kernel).
	responses sim.Carriers[*wifi.Frame]

	clients map[wifi.Addr]*apClient
	uplink  func(from wifi.Addr, db *wifi.DataBody)

	// inv collects invariant violations from the AP and its DHCP server.
	inv *metrics.InvariantSet

	APStats
}

// apScalars are an AP's plain evolving fields. A checkpoint stores them
// whole, and its counters (APStats) whole beside them.
type apScalars struct {
	Seq uint16
	// Down marks a crashed (rebooting) AP: radio dark, state wiped.
	Down bool
	// Muted suppresses beacons while the AP otherwise keeps working —
	// the half-dead box whose management plane wedged.
	Muted bool
}

// APStats are an AP's counters.
type APStats struct {
	AssocGrants   uint64
	PSMBuffered   uint64
	PSMDrops      uint64
	PSMFlushed    uint64
	DownDelivered uint64
	// BeaconsMissed counts beacon slots whose transmission was suppressed
	// because the AP was crashed or beacon-muted — the fault injector's
	// beacon silences made visible to clients only as absence, and to the
	// observability layer as this counter.
	BeaconsMissed uint64
}

// NewAPAt creates an access point at a fixed position, registers its
// radio on the medium, tunes it, and starts beaconing. serverID feeds the
// DHCP server identity.
func NewAPAt(m *radio.Medium, cfg APConfig, addr wifi.Addr, pos geo.Point, serverID uint32) *AP {
	if cfg.RespDelay == nil {
		cfg.RespDelay = DefaultAPConfig(cfg.SSID, cfg.Channel).RespDelay
	}
	if cfg.PSMBufferFrames <= 0 {
		cfg.PSMBufferFrames = DefaultAPConfig(cfg.SSID, cfg.Channel).PSMBufferFrames
	}
	ap := &AP{
		cfg:     cfg,
		clients: make(map[wifi.Addr]*apClient),
		inv:     metrics.NewInvariantSet(),
	}
	ap.responses.Init(m.Kernel(), ap)
	ap.radio = m.NewStaticRadio(addr, pos, ap)
	ap.radio.SetChannel(cfg.Channel)
	ap.pool = m.Pool()
	ap.dhcpd = dhcp.NewServer(ap.kernel(), cfg.DHCP, serverID, ap.sendDHCP)
	ap.dhcpd.SetInvariants(ap.inv)
	if cfg.BeaconInterval > 0 {
		ap.beaconEv = ap.kernel().FireAfter(cfg.BeaconInterval, ap, 0)
	}
	return ap
}

// kernel returns the AP's kernel. The AP keeps no copy of its own: its
// response set holds one, and the pointer saved helps keep an AP in
// Go's 352-byte size class (TestAPSize).
func (ap *AP) kernel() *sim.Kernel { return ap.responses.Kernel() }

// Addr returns the AP's BSSID.
func (ap *AP) Addr() wifi.Addr { return ap.radio.Addr() }

// Channel returns the AP's channel.
func (ap *AP) Channel() int { return ap.cfg.Channel }

// DHCPServer exposes the embedded DHCP server.
func (ap *AP) DHCPServer() *dhcp.Server { return ap.dhcpd }

// Invariants exposes the AP's invariant-violation counters.
func (ap *AP) Invariants() *metrics.InvariantSet { return ap.inv }

// Down reports whether the AP is crashed (rebooting).
func (ap *AP) Down() bool { return ap.sc.Down }

// Crash takes the AP dark: radio off, association table and DHCP lease
// database wiped — the volatile memory of consumer CPE. Responses the
// AP had already scheduled die on the dark radio, and the frames it had
// committed finish untagged: no completion reaches a table entry
// created after the restart. No-op if already down.
func (ap *AP) Crash() {
	if ap.sc.Down {
		return
	}
	ap.sc.Down = true
	ap.radio.Orphan(nil)
	ap.radio.SetChannel(0)
	ap.clients = make(map[wifi.Addr]*apClient)
	ap.dhcpd.Reset()
}

// Restart brings a crashed AP back on its configured channel with empty
// state. Clients that still believe they are associated discover the
// truth via the class-3 deauth their next data frame provokes.
func (ap *AP) Restart() {
	if !ap.sc.Down {
		return
	}
	ap.sc.Down = false
	ap.radio.SetChannel(ap.cfg.Channel)
}

// SetBeaconMute suppresses (true) or resumes (false) beaconing while
// the AP otherwise keeps serving — the half-dead box fault mode.
func (ap *AP) SetBeaconMute(on bool) { ap.sc.Muted = on }

// SetRespPool points the AP at a carrier pool shared with the other
// APs of its world. Call before the AP schedules any response; an AP
// given no pool makes its own at its first response.
func (ap *AP) SetRespPool(p *sim.CarrierPool[*wifi.Frame]) { ap.responses.SetPool(p) }

// BeaconInterval returns the configured beacon period (0 when beacons
// are disabled).
func (ap *AP) BeaconInterval() time.Duration { return ap.cfg.BeaconInterval }

// SetUplinkHandler registers the wired-side sink for client data frames.
func (ap *AP) SetUplinkHandler(h func(from wifi.Addr, db *wifi.DataBody)) { ap.uplink = h }

func (ap *AP) nextSeq() uint16 {
	ap.sc.Seq++
	return ap.sc.Seq
}

// Fire implements sim.Handler: the AP's one timer, the beacon tick,
// fires through it.
func (ap *AP) Fire(uint8) { ap.beacon() }

func (ap *AP) beacon() {
	// The schedule keeps ticking through crashes and silences so the
	// beat resumes cleanly; only the transmission is suppressed.
	if !ap.sc.Down && !ap.sc.Muted {
		ap.radio.Send(ap.beaconFrame(wifi.Broadcast, wifi.TypeBeacon))
	} else {
		ap.BeaconsMissed++
	}
	ap.beaconEv = ap.kernel().FireAfter(ap.cfg.BeaconInterval, ap, 0)
}

// beaconFrame builds a pooled beacon or probe-response frame — the two
// frame kinds that advertise the AP, and by far the medium's highest
// volume traffic. The medium recycles both at transmit completion.
func (ap *AP) beaconFrame(da wifi.Addr, t wifi.FrameType) *wifi.Frame {
	f := ap.pool.Frame()
	ap.Advert().Fill(f, ap.pool.Beacon(), t, da, ap.nextSeq())
	return f
}

// Advert is what every beacon and probe response of one AP carries
// besides its type, destination and sequence number. An AP's advert
// never changes, so a beacon is fixed by the advert and a sequence
// number: the shard layer mirrors boundary beacons as exactly that.
type Advert struct {
	Addr         wifi.Addr
	SSID         string
	Channel      uint8
	BackhaulKbps uint32
}

// Advert returns the AP's advert.
func (ap *AP) Advert() Advert {
	return Advert{Addr: ap.Addr(), SSID: ap.cfg.SSID,
		Channel: uint8(ap.cfg.Channel), BackhaulKbps: uint32(ap.cfg.BackhaulKbps)}
}

// Fill writes into f and b the frame of type t (a beacon or a probe
// response) that advertises a to da with sequence number seq. It is the
// one builder of advertising frames: the AP's own transmissions and the
// shard layer's halo mirrors both come from it. b becomes f's body.
// Fill leaves f's flags and b's capabilities as they are: zero in every
// advertising frame, so a scratch frame can be refilled in place.
func (a Advert) Fill(f *wifi.Frame, b *wifi.BeaconBody, t wifi.FrameType, da wifi.Addr, seq uint16) {
	b.SSID = a.SSID
	b.Channel = a.Channel
	b.BackhaulKbps = a.BackhaulKbps
	f.Type = t
	f.SA, f.DA, f.BSSID = a.Addr, da, a.Addr
	f.Seq = seq
	f.Body = b
}

// respondAfterDelay transmits f after the AP's processing delay.
func (ap *AP) respondAfterDelay(f *wifi.Frame) {
	ap.responses.ArmAfter(ap.cfg.RespDelay.Sample(ap.kernel().RNG("mac.ap.resp")), f, 0)
}

// Arrive implements sim.CarrierOwner: the processing delay ran out, so
// the response goes on the air.
func (ap *AP) Arrive(f *wifi.Frame, _ uint8) { ap.radio.Send(f) }

// RadioReceive implements radio.Receiver: the AP's MAC answers every
// frame its radio hears.
func (ap *AP) RadioReceive(f *wifi.Frame) {
	if ap.sc.Down {
		return // a crashed box hears nothing (its radio is dark anyway)
	}
	switch f.Type {
	case wifi.TypeProbeReq:
		body, ok := f.Body.(*wifi.ProbeReqBody)
		if !ok {
			return
		}
		if body.SSID != "" && body.SSID != ap.cfg.SSID {
			return
		}
		ap.respondAfterDelay(ap.beaconFrame(f.SA, wifi.TypeProbeResp))
	case wifi.TypeAuthReq:
		resp := ap.pool.Frame()
		resp.Type, resp.SA, resp.DA, resp.BSSID = wifi.TypeAuthResp, ap.Addr(), f.SA, ap.Addr()
		resp.Seq = ap.nextSeq()
		resp.Body = authOpenBody
		ap.respondAfterDelay(resp)
	case wifi.TypeAssocReq:
		body, ok := f.Body.(*wifi.AssocReqBody)
		if !ok || body.SSID != ap.cfg.SSID {
			return
		}
		c := ap.clients[f.SA]
		if c == nil {
			c = &apClient{}
			ap.clients[f.SA] = c
		}
		if !c.sc.Associated {
			ap.AssocGrants++
			c.sc.Associated = true
			c.sc.AID = uint16(len(ap.clients))
		}
		resp := ap.pool.Frame()
		resp.Type, resp.SA, resp.DA, resp.BSSID = wifi.TypeAssocResp, ap.Addr(), f.SA, ap.Addr()
		resp.Seq = ap.nextSeq()
		rb := ap.pool.AssocResp()
		rb.AID = c.sc.AID // Status 0: success
		resp.Body = rb
		ap.respondAfterDelay(resp)
	case wifi.TypeDeauth:
		delete(ap.clients, f.SA)
		// The entry's frame still on the radio finishes untagged, so
		// its completion cannot reach a re-association's entry.
		ap.radio.Orphan(func(tag radio.TxTag) bool { return tag.Addr == f.SA })
	case wifi.TypeNull:
		c, ok := ap.clients[f.SA]
		if !ok || !c.sc.Associated {
			return
		}
		c.sc.PSM = f.PowerMgmt
		if !c.sc.PSM {
			ap.flush(f.SA, c)
		} else {
			c.sc.Draining = false
			ap.pump(f.SA, c) // parks whatever had not reached the air
		}
	case wifi.TypePSPoll:
		c, ok := ap.clients[f.SA]
		if !ok || !c.sc.Associated {
			return
		}
		// Simplification: a PS-poll drains the whole buffer rather than
		// one frame. Spider polls once per channel visit; per-frame polls
		// would only add constant airtime.
		ap.flush(f.SA, c)
	case wifi.TypeData:
		c, ok := ap.clients[f.SA]
		db, isData := f.Body.(*wifi.DataBody)
		if !isData {
			return
		}
		// DHCP must work before association state is fully settled and is
		// never PSM-deferred (§2: the join process cannot be buffered).
		if db.Proto == wifi.ProtoDHCP {
			if dhcp.DecodeMessageInto(&ap.dhcpMsg, db.Header) {
				ap.dhcpd.HandleMessage(&ap.dhcpMsg)
			}
			return
		}
		if !ok || !c.sc.Associated {
			// Class-3 frame from a non-associated station: per 802.11 the
			// AP answers with a deauth. This is how a client that slept
			// through our reboot learns its association is gone — without
			// it, restarted-AP beacons keep refreshing the client's
			// inactivity timer and the zombie association lives forever.
			df := ap.pool.Frame()
			df.Type = wifi.TypeDeauth
			df.SA, df.DA, df.BSSID = ap.Addr(), f.SA, ap.Addr()
			df.Seq = ap.nextSeq()
			df.Body = deauthClass3Body
			ap.radio.Send(df)
			return
		}
		if ap.uplink != nil {
			ap.uplink(f.SA, db)
		}
	}
}

func (ap *AP) flush(client wifi.Addr, c *apClient) {
	ap.PSMFlushed += uint64(len(c.buffer))
	c.pending = append(c.pending, c.buffer...)
	for i := range c.buffer {
		c.buffer[i] = nil
	}
	c.buffer = c.buffer[:0]
	c.sc.Draining = true
	ap.pump(client, c)
}

// pump keeps exactly one downlink frame per client committed to the
// radio. Pacing against actual MAC completion means a PSM announcement
// can park everything not yet on the air — committing a deep queue would
// burn retries into the void after the client leaves the channel.
func (ap *AP) pump(client wifi.Addr, c *apClient) {
	if c.sc.TxBusy || !c.sc.Associated {
		return
	}
	if c.sc.PSM && !c.sc.Draining {
		// Park anything still pending.
		c.buffer = append(c.buffer, c.pending...)
		for i := range c.pending {
			c.pending[i] = nil
		}
		c.pending = c.pending[:0]
		ap.trimBuffer(c)
		return
	}
	if len(c.pending) == 0 {
		c.sc.Draining = false
		return
	}
	// Shift-down pop keeps the slice anchored to its backing array, so
	// the steady-state pending queue never reallocates.
	f := c.pending[0]
	copy(c.pending, c.pending[1:])
	c.pending[len(c.pending)-1] = nil
	c.pending = c.pending[:len(c.pending)-1]
	c.sc.TxBusy = true
	ap.DownDelivered++
	ap.radio.SendTagged(f, radio.TxTag{Kind: radio.TagAPPump, Addr: client})
}

// TxDone implements radio.Receiver: the MAC is done with the client's
// committed downlink frame, so the pump commits the next. A client the
// AP has forgotten has no frame tagged on the radio (deauth and Crash
// strip them), so the lookup finds the entry that sent the frame.
func (ap *AP) TxDone(tag radio.TxTag, _ bool) {
	if c := ap.clients[tag.Addr]; c != nil {
		c.sc.TxBusy = false
		ap.pump(tag.Addr, c)
	}
}

func (ap *AP) trimBuffer(c *apClient) {
	if over := len(c.buffer) - ap.cfg.PSMBufferFrames; over > 0 {
		ap.PSMDrops += uint64(over)
		c.buffer = c.buffer[over:] // oldest first: tail keeps fresh data
	}
}

// sendDHCP transmits a DHCP server message to a client. DHCP responses
// bypass PSM buffering: the lease process is controlled by the AP and
// cannot be deferred by the client's power-save claim — the paper's
// central observation.
func (ap *AP) sendDHCP(to wifi.Addr, m dhcp.Message) {
	db := ap.pool.Data()
	db.Proto = wifi.ProtoDHCP
	db.Header = m.AppendEncode(db.Header[:0])
	db.VirtualLen = dhcp.WireOverhead
	f := ap.pool.Frame()
	f.Type = wifi.TypeData
	f.SA, f.DA, f.BSSID = ap.Addr(), to, ap.Addr()
	f.Body = db
	ap.radio.Send(f)
}

// Deliver hands a wired-side downlink payload to the MAC for over-the-air
// delivery to an associated client. If the client has announced PSM the
// frame is buffered (bounded, head-drop); if the client is not associated
// the frame is dropped. Returns false on drop.
func (ap *AP) Deliver(to wifi.Addr, db *wifi.DataBody) bool {
	c, ok := ap.clients[to]
	if !ok || !c.sc.Associated {
		return false
	}
	f := ap.pool.Frame()
	f.Type = wifi.TypeData
	f.SA, f.DA, f.BSSID = ap.Addr(), to, ap.Addr()
	f.Seq = ap.nextSeq()
	f.Body = db
	if c.sc.PSM {
		if len(c.buffer) >= ap.cfg.PSMBufferFrames {
			ap.PSMDrops++
			return false
		}
		ap.PSMBuffered++
		c.buffer = append(c.buffer, f)
		return true
	}
	c.pending = append(c.pending, f)
	ap.pump(to, c)
	return true
}
