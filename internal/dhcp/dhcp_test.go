package dhcp

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"spider/internal/sim"
	"spider/internal/wifi"
)

func mac(i uint32) wifi.Addr { return wifi.NewAddr(2, i) }

func TestMessageRoundTrip(t *testing.T) {
	in := &Message{Op: Offer, XID: 0xdeadbeef, ClientMAC: mac(7),
		YourIP: IP(0x0A000065), ServerID: 42, LeaseSecs: 3600}
	var out Message
	if !DecodeMessageInto(&out, in.AppendEncode(nil)) {
		t.Fatal("decode failed")
	}
	if !reflect.DeepEqual(*in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(op uint8, xid uint32, ip uint32, sid uint32, lease uint32) bool {
		o := Op(op%5) + 1
		in := &Message{Op: o, XID: xid, ClientMAC: mac(xid), YourIP: IP(ip), ServerID: sid, LeaseSecs: lease}
		var out Message
		return DecodeMessageInto(&out, in.AppendEncode(nil)) && reflect.DeepEqual(*in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	var m Message
	if DecodeMessageInto(&m, nil) {
		t.Fatal("nil decode should fail")
	}
	b := (&Message{Op: Discover, ClientMAC: mac(1)}).AppendEncode(nil)
	b[0] = 99
	if DecodeMessageInto(&m, b) {
		t.Fatal("bad op should fail")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	m := &Message{Op: Request, XID: 5, ClientMAC: mac(3), YourIP: 0x0A000070}
	f := &wifi.Frame{Type: wifi.TypeData, SA: mac(3), DA: mac(9), BSSID: mac(9),
		Body: &wifi.DataBody{Proto: wifi.ProtoDHCP, Header: m.AppendEncode(nil), VirtualLen: WireOverhead}}
	back, err := wifi.Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	db, ok := back.Body.(*wifi.DataBody)
	var got Message
	if !ok || db.Proto != wifi.ProtoDHCP || !DecodeMessageInto(&got, db.Header) || !reflect.DeepEqual(*m, got) {
		t.Fatalf("frame round trip mismatch: %+v", got)
	}
	// Frame large enough to cost realistic airtime.
	if f.Size() < 250 {
		t.Fatalf("DHCP frame suspiciously small: %d bytes", f.Size())
	}
}

func TestIPString(t *testing.T) {
	if IP(0x0A000064).String() != "10.0.0.100" {
		t.Fatalf("IP string = %s", IP(0x0A000064))
	}
}

func TestOpString(t *testing.T) {
	if Discover.String() != "DISCOVER" || Op(99).String() == "" {
		t.Fatal("op strings broken")
	}
}

// fastServer returns a server with deterministic small latencies.
func fastServer(k *sim.Kernel, send func(to wifi.Addr, m Message)) *Server {
	cfg := ServerConfig{
		OfferLatency: sim.Constant{V: 50 * time.Millisecond},
		AckLatency:   sim.Constant{V: 30 * time.Millisecond},
		LeaseDur:     time.Hour,
		PoolStart:    0x0A000064,
		PoolSize:     3,
	}
	return NewServer(k, cfg, 7, send)
}

func TestServerDiscoverOfferRequestAck(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*Message
	s := fastServer(k, func(to wifi.Addr, m Message) { sent = append(sent, &m) })
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	k.RunAll()
	if len(sent) != 1 || sent[0].Op != Offer {
		t.Fatalf("expected OFFER, got %+v", sent)
	}
	offered := sent[0].YourIP
	if offered == 0 {
		t.Fatal("no IP offered")
	}
	s.HandleMessage(&Message{Op: Request, XID: 1, ClientMAC: mac(1), YourIP: offered})
	k.RunAll()
	if len(sent) != 2 || sent[1].Op != Ack || sent[1].YourIP != offered {
		t.Fatalf("expected ACK for %v, got %+v", offered, sent[1])
	}
	if b, ok := s.bindings[mac(1)]; len(s.bindings) != 1 || !ok || b.expires <= k.Now() {
		t.Fatalf("bindings = %+v", s.bindings)
	}
}

func TestServerLatencyAppliedBeforeOffer(t *testing.T) {
	k := sim.NewKernel(1)
	var offerAt time.Duration
	s := fastServer(k, func(to wifi.Addr, m Message) { offerAt = k.Now() })
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	k.RunAll()
	if offerAt != 50*time.Millisecond {
		t.Fatalf("offer at %v, want 50ms", offerAt)
	}
}

func TestServerReusesBindingForSameMAC(t *testing.T) {
	k := sim.NewKernel(1)
	var ips []IP
	s := fastServer(k, func(to wifi.Addr, m Message) { ips = append(ips, m.YourIP) })
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	k.RunAll()
	s.HandleMessage(&Message{Op: Discover, XID: 2, ClientMAC: mac(1)})
	k.RunAll()
	if len(ips) != 2 || ips[0] != ips[1] {
		t.Fatalf("same MAC got different IPs: %v", ips)
	}
}

func TestServerPoolExhaustionSilent(t *testing.T) {
	k := sim.NewKernel(1)
	count := 0
	s := fastServer(k, func(to wifi.Addr, m Message) { count++ })
	for i := uint32(0); i < 5; i++ { // pool size 3
		s.HandleMessage(&Message{Op: Discover, XID: i, ClientMAC: mac(i)})
	}
	k.RunAll()
	if count != 3 {
		t.Fatalf("pool of 3 produced %d offers", count)
	}
}

func TestServerRequestFirstWithValidCachedIP(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*Message
	s := fastServer(k, func(to wifi.Addr, m Message) { sent = append(sent, &m) })
	s.HandleMessage(&Message{Op: Request, XID: 1, ClientMAC: mac(1), YourIP: 0x0A000064})
	k.RunAll()
	if len(sent) != 1 || sent[0].Op != Ack {
		t.Fatalf("cached REQUEST should be ACKed, got %+v", sent)
	}
}

func TestServerRequestFirstOutOfPoolNaked(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*Message
	s := fastServer(k, func(to wifi.Addr, m Message) { sent = append(sent, &m) })
	s.HandleMessage(&Message{Op: Request, XID: 1, ClientMAC: mac(1), YourIP: 0x01020304})
	k.RunAll()
	if len(sent) != 1 || sent[0].Op != Nak {
		t.Fatalf("foreign cached REQUEST should be NAKed, got %+v", sent)
	}
}

func TestServerRequestForTakenIPNaked(t *testing.T) {
	k := sim.NewKernel(1)
	var sent []*Message
	s := fastServer(k, func(to wifi.Addr, m Message) { sent = append(sent, &m) })
	// Client 1 takes .100 via full handshake.
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	k.RunAll()
	s.HandleMessage(&Message{Op: Request, XID: 1, ClientMAC: mac(1), YourIP: sent[0].YourIP})
	k.RunAll()
	taken := sent[0].YourIP
	// Client 2 claims the same address from cache.
	s.HandleMessage(&Message{Op: Request, XID: 9, ClientMAC: mac(2), YourIP: taken})
	k.RunAll()
	last := sent[len(sent)-1]
	if last.Op != Nak {
		t.Fatalf("conflicting cached REQUEST should be NAKed, got %+v", last)
	}
}

// loop wires a client and server directly together with optional message
// dropping, simulating the radio path. It is the client's host.
type loop struct {
	k      *sim.Kernel
	c      *Client
	s      *Server
	drop   func(m *Message) bool
	result *Result
	// results counts the results the client reported.
	results int
}

func (l *loop) SendDHCP(m *Message) {
	if l.drop != nil && l.drop(m) {
		return
	}
	l.k.After(5*time.Millisecond, func() { l.s.HandleMessage(m) })
}

func (l *loop) DHCPResult(r Result) { l.result, l.results = &r, l.results+1 }

func newLoop(t *testing.T, ccfg ClientConfig, scfg *ServerConfig) *loop {
	t.Helper()
	k := sim.NewKernel(1)
	l := &loop{k: k}
	send := func(to wifi.Addr, m Message) {
		if l.drop != nil && l.drop(&m) {
			return
		}
		// 5ms air delay each way.
		k.After(5*time.Millisecond, func() { l.c.HandleMessage(&m) })
	}
	if scfg == nil {
		cfg := ServerConfig{
			OfferLatency: sim.Constant{V: 200 * time.Millisecond},
			AckLatency:   sim.Constant{V: 100 * time.Millisecond},
		}
		scfg = &cfg
	}
	l.s = NewServer(k, *scfg, 7, send)
	l.c = new(Client)
	l.c.Init(k, ccfg, mac(1), l)
	return l
}

func TestClientFullHandshake(t *testing.T) {
	l := newLoop(t, DefaultClientConfig(), nil)
	l.c.Start(0)
	l.k.Run(10 * time.Second)
	if l.result == nil || !l.result.Success {
		t.Fatalf("handshake failed: %+v", l.result)
	}
	// 5+200+5 (discover/offer) + 5+100+5 (request/ack) = 320ms.
	if l.result.Elapsed != 320*time.Millisecond {
		t.Fatalf("elapsed %v, want 320ms", l.result.Elapsed)
	}
	if l.result.FastPath {
		t.Fatal("full handshake claimed fast path")
	}
	if l.results != 1 {
		t.Fatalf("%d results reported, want 1", l.results)
	}
}

func TestClientFastPathWithCachedLease(t *testing.T) {
	l := newLoop(t, DefaultClientConfig(), nil)
	l.c.Start(0x0A000064)
	l.k.Run(10 * time.Second)
	if l.result == nil || !l.result.Success || !l.result.FastPath {
		t.Fatalf("fast path failed: %+v", l.result)
	}
	// Only request/ack: 5+100+5 = 110ms.
	if l.result.Elapsed != 110*time.Millisecond {
		t.Fatalf("elapsed %v, want 110ms", l.result.Elapsed)
	}
}

func TestClientNakFallsBackToDiscovery(t *testing.T) {
	l := newLoop(t, DefaultClientConfig(), nil)
	l.c.Start(0x01020304) // out-of-pool cached address → NAK
	l.k.Run(10 * time.Second)
	if l.result == nil || !l.result.Success {
		t.Fatalf("NAK fallback failed: %+v", l.result)
	}
	if l.result.FastPath {
		t.Fatal("NAKed attempt still marked fast path")
	}
	if l.s.Naks != 1 {
		t.Fatalf("server NAKs = %d", l.s.Naks)
	}
}

func TestClientRetransmitsLostDiscover(t *testing.T) {
	// Retx timer must exceed the server's 210ms round trip: each timeout
	// abandons its XID, so a shorter timer can never accept an OFFER.
	l := newLoop(t, ClientConfig{RetxTimeout: 400 * time.Millisecond, AttemptWindow: 3 * time.Second}, nil)
	dropped := 0
	l.drop = func(m *Message) bool {
		if m.Op == Discover && dropped < 2 {
			dropped++
			return true
		}
		return false
	}
	l.c.Start(0)
	l.k.Run(10 * time.Second)
	if l.result == nil || !l.result.Success {
		t.Fatalf("retransmission did not recover: %+v", l.result)
	}
	if l.result.Retx < 2 {
		t.Fatalf("retx count %d, want ≥2", l.result.Retx)
	}
}

func TestClientFailsWhenServerSilent(t *testing.T) {
	l := newLoop(t, ClientConfig{RetxTimeout: 100 * time.Millisecond, AttemptWindow: 500 * time.Millisecond}, nil)
	l.drop = func(m *Message) bool { return m.Op == Discover }
	l.c.Start(0)
	l.k.Run(10 * time.Second)
	if l.result == nil || l.result.Success {
		t.Fatalf("expected failure: %+v", l.result)
	}
	if l.result.Elapsed != 500*time.Millisecond {
		t.Fatalf("failure at %v, want at window end", l.result.Elapsed)
	}
	if l.results != 1 {
		t.Fatalf("%d results reported, want 1", l.results)
	}
}

func TestClientFailsWhenServerSlowerThanWindow(t *testing.T) {
	// The paper's mechanism: β exceeds the dwell the schedule allows.
	scfg := ServerConfig{
		OfferLatency: sim.Constant{V: 5 * time.Second},
		AckLatency:   sim.Constant{V: 100 * time.Millisecond},
	}
	l := newLoop(t, ClientConfig{RetxTimeout: 500 * time.Millisecond, AttemptWindow: 3 * time.Second}, &scfg)
	l.c.Start(0)
	l.k.Run(20 * time.Second)
	if l.result == nil || l.result.Success {
		t.Fatalf("expected timeout against slow server: %+v", l.result)
	}
}

func TestClientAbortSilences(t *testing.T) {
	l := newLoop(t, DefaultClientConfig(), nil)
	l.c.Start(0)
	l.k.Run(50 * time.Millisecond)
	l.c.Abort()
	l.k.Run(20 * time.Second)
	if l.result != nil {
		t.Fatalf("aborted attempt reported result: %+v", l.result)
	}
	if l.c.sc.State == stateDiscovering || l.c.sc.State == stateRequesting {
		t.Fatal("client busy after abort")
	}
}

func TestClientIgnoresStaleXID(t *testing.T) {
	l := newLoop(t, DefaultClientConfig(), nil)
	l.c.Start(0)
	// Inject an OFFER with a bogus XID.
	l.c.HandleMessage(&Message{Op: Offer, XID: 999, ClientMAC: mac(1), YourIP: 0x0A000064})
	if l.c.sc.State == stateRequesting {
		t.Fatal("client accepted stale XID")
	}
	l.k.Run(10 * time.Second)
	if l.result == nil || !l.result.Success {
		t.Fatal("legitimate handshake disrupted")
	}
}

func TestClientIgnoresForeignMAC(t *testing.T) {
	l := newLoop(t, DefaultClientConfig(), nil)
	l.c.Start(0)
	l.c.HandleMessage(&Message{Op: Offer, XID: 1, ClientMAC: mac(99), YourIP: 0x0A000064})
	if l.c.sc.State == stateRequesting {
		t.Fatal("client accepted foreign OFFER")
	}
	l.k.RunAll()
}

func TestReducedClientConfigKeepsStockWindow(t *testing.T) {
	c := ReducedClientConfig(100 * time.Millisecond)
	if c.RetxTimeout != 100*time.Millisecond {
		t.Fatal("retx not set")
	}
	if c.AttemptWindow != 3*time.Second {
		t.Fatalf("window = %v, want the stock 3s", c.AttemptWindow)
	}
}

func TestDefaultServerConfigSane(t *testing.T) {
	c := DefaultServerConfig(1)
	if c.OfferLatency == nil || c.AckLatency == nil || c.PoolSize <= 0 {
		t.Fatalf("bad default config: %+v", c)
	}
	// Offer latency: fast median, heavy tail — the mean sits well above
	// the median but under a second.
	mean := c.OfferLatency.Mean()
	if mean < 50*time.Millisecond || mean > time.Second {
		t.Fatalf("offer latency mean %v outside plausible band", mean)
	}
}

// Property: no two active leases share an address, for any interleaving
// of discover/request traffic from distinct MACs.
func TestPropertyLeaseUniqueness(t *testing.T) {
	f := func(ops []uint8) bool {
		k := sim.NewKernel(9)
		assigned := map[IP]wifi.Addr{}
		ok := true
		var s *Server
		s = NewServer(k, ServerConfig{
			OfferLatency: sim.Constant{V: time.Millisecond},
			AckLatency:   sim.Constant{V: time.Millisecond},
			PoolSize:     8,
		}, 1, func(to wifi.Addr, m Message) {
			if m.Op == Ack {
				if prev, taken := assigned[m.YourIP]; taken && prev != to {
					ok = false
				}
				assigned[m.YourIP] = to
			}
		})
		for i, op := range ops {
			if i >= 40 {
				break
			}
			who := mac(uint32(op % 12))
			if op%2 == 0 {
				s.HandleMessage(&Message{Op: Discover, XID: uint32(i), ClientMAC: who})
			} else {
				s.HandleMessage(&Message{Op: Request, XID: uint32(i), ClientMAC: who,
					YourIP: s.cfg.PoolStart + IP(op%8)})
			}
			k.RunAll()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// clientHost discards what a client sends and reports.
type clientHost struct{}

func (clientHost) SendDHCP(*Message) {}
func (clientHost) DHCPResult(Result) {}

// A client draws from the per-MAC stream "dhcp.client.<mac>", the name
// checkpoints record, and building a second client for the same MAC
// finds that stream without allocating its name.
func TestClientStreamNamedByMAC(t *testing.T) {
	k := sim.NewKernel(1)
	c := new(Client)
	c.Init(k, DefaultClientConfig(), mac(3), clientHost{})
	if c.rng != k.RNG("dhcp.client."+mac(3).String()) {
		t.Fatal("client does not draw the per-MAC stream")
	}
	var again Client
	if allocs := testing.AllocsPerRun(100, func() {
		again.Init(k, DefaultClientConfig(), mac(3), clientHost{})
	}); allocs > 2 {
		// The two cached timer callbacks are the only allocations left.
		t.Fatalf("Init allocated %.1f times, want at most 2 (the timer callbacks)", allocs)
	}
	if again.rng != c.rng {
		t.Fatal("second client for one MAC drew a different stream")
	}
}
