package mac

import (
	"math/rand"
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/geo"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// testClient is a minimal station: one radio, one joiner, one dhcp client.
// It hosts both, sending their traffic straight to its radio.
type testClient struct {
	k      *sim.Kernel
	radio  *radio.Radio
	ap     wifi.Addr
	joiner *Joiner
	dhcpc  *dhcp.Client

	frames      []*wifi.Frame
	assocRes    *AssocResult
	dhcpRes     *dhcp.Result
	gotData     int
	gotDataSize int
}

func newTestClient(k *sim.Kernel, m *radio.Medium, addr wifi.Addr, pos geo.Point, ap *AP, jcfg JoinConfig, dcfg dhcp.ClientConfig) *testClient {
	c := &testClient{k: k, ap: ap.Addr()}
	c.radio = m.NewRadio(addr, geo.Static{P: pos}, radio.ReceiverFunc(c.receive))
	c.radio.SetChannel(ap.Channel())
	c.joiner = new(Joiner)
	c.joiner.Init(k, jcfg, addr, ap.Addr(), ap.cfg.SSID, c)
	c.dhcpc = new(dhcp.Client)
	c.dhcpc.Init(k, dcfg, addr, c)
	return c
}

// entry returns ap's association-table entry for addr (zero if absent).
func entry(ap *AP, addr wifi.Addr) apClient {
	if c := ap.clients[addr]; c != nil {
		return *c
	}
	return apClient{}
}

func (c *testClient) SendJoinFrame(f *wifi.Frame) { c.radio.Send(f) }
func (c *testClient) JoinResult(r AssocResult)    { c.assocRes = &r }
func (c *testClient) SendDHCP(m *dhcp.Message) {
	c.radio.Send(&wifi.Frame{Type: wifi.TypeData, SA: c.radio.Addr(), DA: c.ap, BSSID: c.ap,
		Body: &wifi.DataBody{Proto: wifi.ProtoDHCP, Header: m.AppendEncode(nil), VirtualLen: dhcp.WireOverhead}})
}
func (c *testClient) DHCPResult(r dhcp.Result) { c.dhcpRes = &r }

func (c *testClient) receive(f *wifi.Frame) {
	c.frames = append(c.frames, f)
	c.joiner.HandleFrame(f)
	if f.Type == wifi.TypeData {
		if db, ok := f.Body.(*wifi.DataBody); ok {
			if db.Proto == wifi.ProtoDHCP {
				var m dhcp.Message
				if dhcp.DecodeMessageInto(&m, db.Header) {
					c.dhcpc.HandleMessage(&m)
				}
				return
			}
			c.gotData++
			c.gotDataSize += db.BodySize()
		}
	}
}

func quietAPConfig(ssid string, ch int) APConfig {
	cfg := DefaultAPConfig(ssid, ch)
	cfg.BeaconInterval = 0 // keep unit-test air quiet
	cfg.RespDelay = sim.Constant{V: 2 * time.Millisecond}
	cfg.DHCP = dhcp.ServerConfig{
		OfferLatency: sim.Constant{V: 50 * time.Millisecond},
		AckLatency:   sim.Constant{V: 20 * time.Millisecond},
	}
	return cfg
}

// losslessMedium disables the frame pool: the test client retains every
// delivered frame for later inspection, which pooled frames (recycled at
// transmit completion) do not allow.
func losslessMedium(k *sim.Kernel) *radio.Medium {
	return radio.NewMedium(k, radio.Config{Range: 100, Loss: 0, EdgeStart: 1, NoPool: true})
}

func setup(t *testing.T) (*sim.Kernel, *radio.Medium, *AP, *testClient) {
	t.Helper()
	k := sim.NewKernel(1)
	m := losslessMedium(k)
	ap := NewAPAt(m, quietAPConfig("net", 6), wifi.NewAddr(0, 1), geo.Point{X: 0, Y: 0}, 1)
	c := newTestClient(k, m, wifi.NewAddr(1, 1), geo.Point{X: 20, Y: 0}, ap,
		ReducedJoinConfig(), dhcp.ReducedClientConfig(200*time.Millisecond))
	return k, m, ap, c
}

func TestProbeResponse(t *testing.T) {
	k, _, ap, c := setup(t)
	c.radio.Send(&wifi.Frame{Type: wifi.TypeProbeReq, SA: c.radio.Addr(), DA: wifi.Broadcast,
		BSSID: wifi.Broadcast, Body: &wifi.ProbeReqBody{}})
	k.Run(time.Second)
	found := false
	for _, f := range c.frames {
		if f.Type == wifi.TypeProbeResp && f.SA == ap.Addr() {
			body := f.Body.(*wifi.BeaconBody)
			if body.SSID != "net" || body.Channel != 6 {
				t.Fatalf("probe resp body %+v", body)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no probe response")
	}
}

func TestProbeWrongSSIDIgnored(t *testing.T) {
	k, _, _, c := setup(t)
	c.radio.Send(&wifi.Frame{Type: wifi.TypeProbeReq, SA: c.radio.Addr(), DA: wifi.Broadcast,
		BSSID: wifi.Broadcast, Body: &wifi.ProbeReqBody{SSID: "other"}})
	k.Run(time.Second)
	for _, f := range c.frames {
		if f.Type == wifi.TypeProbeResp {
			t.Fatal("AP answered probe for foreign SSID")
		}
	}
}

func TestJoinerAssociates(t *testing.T) {
	k, _, ap, c := setup(t)
	c.joiner.Start()
	k.Run(5 * time.Second)
	if c.assocRes == nil || !c.assocRes.Success {
		t.Fatalf("association failed: %+v", c.assocRes)
	}
	if !entry(ap, c.radio.Addr()).sc.Associated {
		t.Fatal("AP does not consider client associated")
	}
	if c.joiner.sc.Stage != StageAssociated {
		t.Fatalf("stage = %v", c.joiner.sc.Stage)
	}
	// Two exchanges at 2ms AP delay plus airtime: well under 100ms.
	if c.assocRes.Elapsed > 100*time.Millisecond {
		t.Fatalf("association took %v", c.assocRes.Elapsed)
	}
}

func TestJoinerRetriesThroughLoss(t *testing.T) {
	k := sim.NewKernel(12)
	m := radio.NewMedium(k, radio.Config{Range: 100, Loss: 0.3, EdgeStart: 1, NoPool: true})
	ap := NewAPAt(m, quietAPConfig("net", 6), wifi.NewAddr(0, 1), geo.Point{}, 1)
	succ := 0
	for i := 0; i < 20; i++ {
		c := newTestClient(k, m, wifi.NewAddr(1, uint32(i+1)), geo.Point{X: 20}, ap,
			ReducedJoinConfig(), dhcp.DefaultClientConfig())
		c.joiner.Start()
		k.Run(k.Now() + 5*time.Second)
		if c.assocRes != nil && c.assocRes.Success {
			succ++
		}
	}
	if succ < 16 {
		t.Fatalf("only %d/20 joins succeeded at 30%% loss with retries", succ)
	}
}

func TestJoinerFailsAgainstAbsentAP(t *testing.T) {
	k := sim.NewKernel(1)
	m := losslessMedium(k)
	// AP exists but client is out of range.
	ap := NewAPAt(m, quietAPConfig("net", 6), wifi.NewAddr(0, 1), geo.Point{}, 1)
	c := newTestClient(k, m, wifi.NewAddr(1, 1), geo.Point{X: 500}, ap,
		JoinConfig{LinkTimeout: 100 * time.Millisecond, MaxRetries: 2}, dhcp.DefaultClientConfig())
	c.joiner.Start()
	k.Run(5 * time.Second)
	if c.assocRes == nil || c.assocRes.Success {
		t.Fatalf("expected failure, got %+v", c.assocRes)
	}
	if c.assocRes.Stage != StageAuth {
		t.Fatalf("failed at stage %v, want auth", c.assocRes.Stage)
	}
	// 3 sends × 100ms jittered timers: 240–360ms.
	if c.assocRes.Elapsed < 240*time.Millisecond || c.assocRes.Elapsed > 360*time.Millisecond {
		t.Fatalf("failure after %v, want ~300ms", c.assocRes.Elapsed)
	}
}

func TestJoinerAbort(t *testing.T) {
	k, _, _, c := setup(t)
	c.joiner.Start()
	c.joiner.Abort()
	k.Run(5 * time.Second)
	if c.assocRes != nil {
		t.Fatal("aborted joiner reported result")
	}
	if c.joiner.Busy() {
		t.Fatal("busy after abort")
	}
}

func joinAndLease(t *testing.T, k *sim.Kernel, c *testClient) {
	t.Helper()
	c.joiner.Start()
	k.Run(k.Now() + 5*time.Second)
	if c.assocRes == nil || !c.assocRes.Success {
		t.Fatalf("assoc failed: %+v", c.assocRes)
	}
	c.dhcpc.Start(0)
	k.Run(k.Now() + 10*time.Second)
	if c.dhcpRes == nil || !c.dhcpRes.Success {
		t.Fatalf("dhcp failed: %+v", c.dhcpRes)
	}
}

func TestFullJoinWithDHCPOverAir(t *testing.T) {
	k, _, ap, c := setup(t)
	joinAndLease(t, k, c)
	if c.dhcpRes.IP == 0 {
		t.Fatal("no IP assigned")
	}
	st, err := ap.dhcpd.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Bindings) != 1 || st.Bindings[0].Expires <= k.Now() {
		t.Fatalf("server lease not recorded: %+v", st.Bindings)
	}
}

// TestRespPoolOnFirstResponse: NewAPAt allocates no response pool. A
// standalone AP makes its own at its first response; one handed a
// shared pool, as a world hands its APs, draws from that one.
func TestRespPoolOnFirstResponse(t *testing.T) {
	k, _, ap, c := setup(t)
	if ap.responses.Pool() != nil {
		t.Fatal("NewAPAt allocated a response pool")
	}
	joinAndLease(t, k, c)
	if ap.responses.Pool() == nil {
		t.Fatal("a standalone AP answered a join without a response pool")
	}

	k, _, ap, c = setup(t)
	var shared sim.CarrierPool[*wifi.Frame]
	ap.SetRespPool(&shared)
	joinAndLease(t, k, c)
	if ap.responses.Pool() != &shared {
		t.Fatal("an AP given a shared pool replaced it")
	}
}

func TestPSMBuffersAndPSPollFlushes(t *testing.T) {
	k, _, ap, c := setup(t)
	joinAndLease(t, k, c)
	me := c.radio.Addr()
	// Enter PSM.
	c.radio.Send(&wifi.Frame{Type: wifi.TypeNull, SA: me, DA: ap.Addr(), BSSID: ap.Addr(), PowerMgmt: true})
	k.Run(k.Now() + 100*time.Millisecond)
	if !entry(ap, me).sc.PSM {
		t.Fatal("AP did not record PSM")
	}
	// Downlink while in PSM: buffered, not delivered.
	before := c.gotData
	for i := 0; i < 3; i++ {
		if !ap.Deliver(me, &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 500}) {
			t.Fatal("Deliver rejected while buffering")
		}
	}
	k.Run(k.Now() + 200*time.Millisecond)
	if c.gotData != before {
		t.Fatal("frames delivered despite PSM")
	}
	if len(entry(ap, me).buffer) != 3 {
		t.Fatalf("buffered %d, want 3", len(entry(ap, me).buffer))
	}
	// PS-Poll drains.
	c.radio.Send(&wifi.Frame{Type: wifi.TypePSPoll, SA: me, DA: ap.Addr(), BSSID: ap.Addr()})
	k.Run(k.Now() + 200*time.Millisecond)
	if c.gotData != before+3 {
		t.Fatalf("after PS-poll got %d frames, want %d", c.gotData, before+3)
	}
	if len(entry(ap, me).buffer) != 0 {
		t.Fatal("buffer not drained")
	}
	if !entry(ap, me).sc.PSM {
		t.Fatal("PS-poll should not clear PSM state")
	}
}

func TestPSMExitFlushes(t *testing.T) {
	k, _, ap, c := setup(t)
	joinAndLease(t, k, c)
	me := c.radio.Addr()
	c.radio.Send(&wifi.Frame{Type: wifi.TypeNull, SA: me, DA: ap.Addr(), BSSID: ap.Addr(), PowerMgmt: true})
	k.Run(k.Now() + 100*time.Millisecond)
	ap.Deliver(me, &wifi.DataBody{Proto: wifi.ProtoPing, VirtualLen: 100})
	// Leave PSM.
	c.radio.Send(&wifi.Frame{Type: wifi.TypeNull, SA: me, DA: ap.Addr(), BSSID: ap.Addr(), PowerMgmt: false})
	k.Run(k.Now() + 200*time.Millisecond)
	if entry(ap, me).sc.PSM {
		t.Fatal("PSM not cleared")
	}
	if c.gotData != 1 {
		t.Fatalf("got %d frames after PSM exit, want 1", c.gotData)
	}
}

func TestPSMBufferOverflowDrops(t *testing.T) {
	k := sim.NewKernel(1)
	m := losslessMedium(k)
	cfg := quietAPConfig("net", 6)
	cfg.PSMBufferFrames = 2
	ap := NewAPAt(m, cfg, wifi.NewAddr(0, 1), geo.Point{}, 1)
	c := newTestClient(k, m, wifi.NewAddr(1, 1), geo.Point{X: 20}, ap,
		ReducedJoinConfig(), dhcp.ReducedClientConfig(200*time.Millisecond))
	joinAndLease(t, k, c)
	me := c.radio.Addr()
	c.radio.Send(&wifi.Frame{Type: wifi.TypeNull, SA: me, DA: ap.Addr(), BSSID: ap.Addr(), PowerMgmt: true})
	k.Run(k.Now() + 100*time.Millisecond)
	ok1 := ap.Deliver(me, &wifi.DataBody{Proto: wifi.ProtoPing})
	ok2 := ap.Deliver(me, &wifi.DataBody{Proto: wifi.ProtoPing})
	ok3 := ap.Deliver(me, &wifi.DataBody{Proto: wifi.ProtoPing})
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("overflow behaviour wrong: %v %v %v", ok1, ok2, ok3)
	}
	if ap.PSMDrops != 1 {
		t.Fatalf("PSMDrops = %d", ap.PSMDrops)
	}
}

func TestDHCPBypassesPSM(t *testing.T) {
	// A client that claims PSM must still receive DHCP responses — the
	// join process cannot be deferred (§2).
	k, _, ap, c := setup(t)
	c.joiner.Start()
	k.Run(k.Now() + 5*time.Second)
	me := c.radio.Addr()
	c.radio.Send(&wifi.Frame{Type: wifi.TypeNull, SA: me, DA: ap.Addr(), BSSID: ap.Addr(), PowerMgmt: true})
	k.Run(k.Now() + 100*time.Millisecond)
	c.dhcpc.Start(0)
	k.Run(k.Now() + 10*time.Second)
	if c.dhcpRes == nil || !c.dhcpRes.Success {
		t.Fatalf("DHCP blocked by PSM: %+v", c.dhcpRes)
	}
}

func TestDeauthClearsAssociation(t *testing.T) {
	k, _, ap, c := setup(t)
	joinAndLease(t, k, c)
	me := c.radio.Addr()
	c.radio.Send(&wifi.Frame{Type: wifi.TypeDeauth, SA: me, DA: ap.Addr(), BSSID: ap.Addr(),
		Body: &wifi.DeauthBody{Reason: 3}})
	k.Run(k.Now() + 100*time.Millisecond)
	if entry(ap, me).sc.Associated {
		t.Fatal("still associated after deauth")
	}
	if ap.Deliver(me, &wifi.DataBody{Proto: wifi.ProtoPing}) {
		t.Fatal("Deliver succeeded for deauthed client")
	}
}

func TestDataFromStrangerDropped(t *testing.T) {
	k, _, ap, c := setup(t)
	got := 0
	ap.SetUplinkHandler(func(from wifi.Addr, db *wifi.DataBody) { got++ })
	c.radio.Send(&wifi.Frame{Type: wifi.TypeData, SA: c.radio.Addr(), DA: ap.Addr(), BSSID: ap.Addr(),
		Body: &wifi.DataBody{Proto: wifi.ProtoTCP, VirtualLen: 100}})
	k.Run(time.Second)
	if got != 0 {
		t.Fatal("uplink accepted from non-associated client")
	}
}

func TestUplinkDeliveredWhenAssociated(t *testing.T) {
	k, _, ap, c := setup(t)
	joinAndLease(t, k, c)
	var gotFrom wifi.Addr
	got := 0
	ap.SetUplinkHandler(func(from wifi.Addr, db *wifi.DataBody) { got++; gotFrom = from })
	c.radio.Send(&wifi.Frame{Type: wifi.TypeData, SA: c.radio.Addr(), DA: ap.Addr(), BSSID: ap.Addr(),
		Body: &wifi.DataBody{Proto: wifi.ProtoTCP, VirtualLen: 100}})
	k.Run(k.Now() + time.Second)
	if got != 1 || gotFrom != c.radio.Addr() {
		t.Fatalf("uplink got=%d from=%v", got, gotFrom)
	}
}

func TestBeaconsEmittedPeriodically(t *testing.T) {
	k := sim.NewKernel(1)
	m := losslessMedium(k)
	cfg := quietAPConfig("net", 6)
	cfg.BeaconInterval = 100 * time.Millisecond
	ap := NewAPAt(m, cfg, wifi.NewAddr(0, 1), geo.Point{}, 1)
	_ = ap
	c := newTestClient(k, m, wifi.NewAddr(1, 1), geo.Point{X: 20}, ap,
		DefaultJoinConfig(), dhcp.DefaultClientConfig())
	k.Run(time.Second)
	beacons := 0
	for _, f := range c.frames {
		if f.Type == wifi.TypeBeacon {
			beacons++
		}
	}
	if beacons < 8 || beacons > 11 {
		t.Fatalf("got %d beacons in 1s, want ~10", beacons)
	}
}

func TestCachedLeaseFastPathOverAir(t *testing.T) {
	k, _, _, c := setup(t)
	joinAndLease(t, k, c)
	firstIP := c.dhcpRes.IP
	firstElapsed := c.dhcpRes.Elapsed
	// Rejoin with the cached lease: REQUEST-first must be faster.
	c.dhcpRes = nil
	c.dhcpc.Start(firstIP)
	k.Run(k.Now() + 10*time.Second)
	if c.dhcpRes == nil || !c.dhcpRes.Success || !c.dhcpRes.FastPath {
		t.Fatalf("fast path failed: %+v", c.dhcpRes)
	}
	if c.dhcpRes.IP != firstIP {
		t.Fatal("cached lease changed address")
	}
	if c.dhcpRes.Elapsed >= firstElapsed {
		t.Fatalf("fast path (%v) not faster than full join (%v)", c.dhcpRes.Elapsed, firstElapsed)
	}
}

func TestJoinStageStrings(t *testing.T) {
	for _, s := range []JoinStage{StageIdle, StageAuth, StageAssoc, StageAssociated, JoinStage(99)} {
		if s.String() == "" {
			t.Fatal("empty stage string")
		}
	}
}

// joinerHost discards what a joiner sends and reports.
type joinerHost struct{}

func (joinerHost) SendJoinFrame(*wifi.Frame) {}
func (joinerHost) JoinResult(AssocResult)    {}

// A joiner draws from the stream named for its (client, BSSID) pair,
// "mac.joiner.<client><bssid>", whether freshly built or recycled by
// ResetTarget: a recycled joiner must draw exactly what a new one would,
// and re-targeting the first AP must resume that AP's stream.
func TestJoinerStreamFollowsTarget(t *testing.T) {
	k := sim.NewKernel(1)
	self, apA, apB := wifi.NewAddr(2, 7), wifi.NewAddr(0, 1), wifi.NewAddr(0, 2)
	stream := func(bssid wifi.Addr) *rand.Rand {
		return k.RNG("mac.joiner." + self.String() + bssid.String())
	}
	j := new(Joiner)
	j.Init(k, DefaultJoinConfig(), self, apA, "a", joinerHost{})
	if j.rng != stream(apA) {
		t.Fatal("new joiner does not draw the (client, BSSID) stream")
	}
	j.rng.Int63() // advance A's stream; re-targeting A must not restart it
	j.ResetTarget(apB, "b")
	if j.rng != stream(apB) {
		t.Fatal("recycled joiner does not draw its new target's stream")
	}
	j.ResetTarget(apA, "a")
	if j.rng != stream(apA) {
		t.Fatal("re-targeted joiner lost its first target's stream")
	}
	fresh := new(Joiner)
	fresh.Init(sim.NewKernel(1), DefaultJoinConfig(), self, apA, "a", joinerHost{})
	fresh.rng.Int63()
	if a, b := j.rng.Int63(), fresh.rng.Int63(); a != b {
		t.Fatalf("recycled joiner drew %d, a fresh one %d", a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() { j.ResetTarget(apB, "b") }); allocs != 0 {
		t.Fatalf("ResetTarget allocated %.1f times finding an existing stream", allocs)
	}
}
