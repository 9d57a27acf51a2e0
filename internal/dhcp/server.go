package dhcp

import (
	"math/rand"
	"time"

	"spider/internal/metrics"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// Chaos is injected server misbehavior, applied per incoming message:
// Drop silently discards it, Nak refuses a REQUEST (a DISCOVER under a
// NAK draw is dropped instead — NAK has no meaning for it), SlowProb
// stalls the response by an extra SlowThink sample. One RNG draw
// partitions [0,1) across the three, so probabilities must sum ≤ 1.
type Chaos struct {
	Drop      float64
	Nak       float64
	SlowProb  float64
	SlowThink sim.Dist
}

func (c Chaos) active() bool { return c.Drop > 0 || c.Nak > 0 || c.SlowProb > 0 }

// ServerConfig parameterizes one AP's DHCP server.
type ServerConfig struct {
	// OfferLatency is the server think-time between receiving DISCOVER
	// and transmitting OFFER. This is the paper's β driver: a quantity
	// the client cannot shorten. The default spans the range that yields
	// the paper's observed ~2.5 s median join on an undisturbed channel.
	OfferLatency sim.Dist
	// AckLatency is the think-time between REQUEST and ACK.
	AckLatency sim.Dist
	// LeaseDur is the lease lifetime granted.
	LeaseDur time.Duration
	// PoolStart is the first assignable address; PoolSize the count.
	PoolStart IP
	PoolSize  int
	// ServerID identifies this server in OFFER/ACK messages.
	ServerID uint32
}

// The default latency dists live in package vars so the interface
// boxing happens once, not once per AP — a metro builds 50k servers.
var (
	defaultOfferLatency sim.Dist = sim.LogNormal{Mu: -2.3, Sigma: 1.4, Cap: 15 * time.Second}
	defaultAckLatency   sim.Dist = sim.LogNormal{Mu: -3.0, Sigma: 1.2, Cap: 8 * time.Second}
)

// DefaultServerConfig returns the latency spread of organic urban DHCP
// servers: usually tens of milliseconds, with a heavy tail into seconds
// (overloaded CPE, upstream relays). The β the client experiences is
// this think-time compounded by losses and its own timers; the tail is
// what the client cannot control (§2).
func DefaultServerConfig(serverID uint32) ServerConfig {
	return ServerConfig{
		OfferLatency: defaultOfferLatency,
		AckLatency:   defaultAckLatency,
		LeaseDur:     time.Hour,
		PoolStart:    IP(0x0A000064), // 10.0.0.100
		PoolSize:     100,
		ServerID:     serverID,
	}
}

func (c ServerConfig) withDefaults(serverID uint32) ServerConfig {
	d := DefaultServerConfig(serverID)
	if c.OfferLatency == nil {
		c.OfferLatency = d.OfferLatency
	}
	if c.AckLatency == nil {
		c.AckLatency = d.AckLatency
	}
	if c.LeaseDur <= 0 {
		c.LeaseDur = d.LeaseDur
	}
	if c.PoolStart == 0 {
		c.PoolStart = d.PoolStart
	}
	if c.PoolSize <= 0 {
		c.PoolSize = d.PoolSize
	}
	if c.ServerID == 0 {
		c.ServerID = serverID
	}
	return c
}

// binding is one MAC's lease.
type binding struct {
	ip      IP
	expires time.Duration
}

// Server is a per-AP DHCP server. It is transport-agnostic: the owner
// (the AP MAC) supplies a send function and feeds it incoming messages.
type Server struct {
	kernel *sim.Kernel
	cfg    ServerConfig
	rng    *rand.Rand
	send   func(to wifi.Addr, m Message)

	bindings map[wifi.Addr]binding
	sc       serverScalars

	// replies holds each response across the server's think time; the
	// carrier's kind byte is the response kind.
	replies sim.Carriers[Message]

	// Fault-injection state (inert until SetChaos).
	chaos    Chaos
	chaosRNG *rand.Rand
	onFault  func(kind string)

	// inv counts protocol-impossible inputs (nil-safe; see SetInvariants).
	inv *metrics.InvariantSet

	ServerStats
}

// serverScalars are a server's plain evolving fields. A checkpoint
// stores them whole, and its counters (ServerStats) whole beside them.
type serverScalars struct {
	NextIP int
}

// ServerStats are a server's counters.
type ServerStats struct {
	Discovers, Offers, Requests, Acks, Naks uint64
	// ChaosDrops/ChaosNaks/ChaosSlows count injected misbehaviors.
	ChaosDrops, ChaosNaks, ChaosSlows uint64
}

// NewServer creates a server. send transmits a message toward a client;
// the AP wires it to its radio path.
func NewServer(k *sim.Kernel, cfg ServerConfig, serverID uint32, send func(to wifi.Addr, m Message)) *Server {
	if send == nil {
		panic("dhcp: server needs a send function")
	}
	s := &Server{
		kernel:   k,
		cfg:      cfg.withDefaults(serverID),
		rng:      k.RNG("dhcp.server"),
		send:     send,
		bindings: make(map[wifi.Addr]binding),
	}
	s.replies.Init(k, s)
	return s
}

// SetRespPool points the server at a carrier pool shared with the other
// servers of its world. Call before the server schedules any response;
// a server given no pool makes its own at its first response.
func (s *Server) SetRespPool(p *sim.CarrierPool[Message]) { s.replies.SetPool(p) }

// SetChaos installs (or replaces) injected misbehavior. rng must be a
// stream owned by the caller — the fault injector passes a dedicated
// per-server stream so chaos draws never share randomness with the
// server's think-time stream. onFault (optional) observes each injected
// misbehavior by kind ("drop", "nak", "slow").
func (s *Server) SetChaos(rng *rand.Rand, c Chaos, onFault func(kind string)) {
	s.chaos = c
	s.chaosRNG = rng
	s.onFault = onFault
}

// ChaosConfig returns the active injected-misbehavior settings.
func (s *Server) ChaosConfig() Chaos { return s.chaos }

// SetInvariants points the server at a shared invariant-violation set.
// A nil set (the default) is safe: violations are simply not counted.
func (s *Server) SetInvariants(inv *metrics.InvariantSet) { s.inv = inv }

// Reset wipes the lease database — the volatile memory of rebooting
// consumer CPE. Responses already scheduled on the kernel still fire;
// the AP's radio is dark during a crash, so they die on the air, which
// is exactly what happens to a rebooting box's last in-flight replies.
func (s *Server) Reset() {
	s.bindings = make(map[wifi.Addr]binding)
	s.sc.NextIP = 0
}

// Response kinds: a reply carrier's kind byte, which selects the stat
// bumped when the reply goes out.
const (
	respOffer uint8 = iota
	respAck
	respNak
)

// Arrive implements sim.CarrierOwner: the think time ran out, so the
// response goes out.
func (s *Server) Arrive(m Message, kind uint8) {
	switch kind {
	case respOffer:
		s.Offers++
	case respAck:
		s.Acks++
	case respNak:
		s.Naks++
	}
	s.send(m.ClientMAC, m)
}

// chaosIntercept applies injected misbehavior to one incoming message.
// It reports whether the message should be processed at all and how
// much extra think-time to add to the response.
func (s *Server) chaosIntercept(m *Message) (proceed bool, extra time.Duration) {
	if !s.chaos.active() || s.chaosRNG == nil {
		return true, 0
	}
	r := s.chaosRNG.Float64()
	switch {
	case r < s.chaos.Drop:
		s.ChaosDrops++
		s.notifyFault("drop")
		return false, 0
	case r < s.chaos.Drop+s.chaos.Nak:
		if m.Op == Request {
			s.ChaosNaks++
			s.notifyFault("nak")
			// Copy out of m before the latency elapses: the message may be
			// a transport's decode scratch, dead after HandleMessage returns.
			resp := Message{Op: Nak, XID: m.XID, ClientMAC: m.ClientMAC, ServerID: s.cfg.ServerID}
			s.replies.ArmAfter(s.cfg.AckLatency.Sample(s.rng), resp, respNak)
			return false, 0
		}
		s.ChaosDrops++
		s.notifyFault("drop")
		return false, 0
	case r < s.chaos.Drop+s.chaos.Nak+s.chaos.SlowProb:
		s.ChaosSlows++
		s.notifyFault("slow")
		if s.chaos.SlowThink != nil {
			extra = s.chaos.SlowThink.Sample(s.chaosRNG)
		} else {
			extra = 2 * time.Second
		}
		return true, extra
	}
	return true, 0
}

func (s *Server) notifyFault(kind string) {
	if s.onFault != nil {
		s.onFault(kind)
	}
}

// HandleMessage processes one client message. Responses are emitted via
// the send function after the configured server latency.
func (s *Server) HandleMessage(m *Message) {
	proceed, extra := s.chaosIntercept(m)
	if !proceed {
		return
	}
	switch m.Op {
	case Discover:
		s.Discovers++
		ip, ok := s.lookupOrAllocate(m.ClientMAC)
		if !ok {
			return // pool exhausted: silence, like real routers
		}
		resp := Message{Op: Offer, XID: m.XID, ClientMAC: m.ClientMAC,
			YourIP: ip, ServerID: s.cfg.ServerID, LeaseSecs: uint32(s.cfg.LeaseDur.Seconds())}
		s.replies.ArmAfter(s.cfg.OfferLatency.Sample(s.rng)+extra, resp, respOffer)
	case Request:
		s.Requests++
		b, ok := s.bindings[m.ClientMAC]
		now := s.kernel.Now()
		if ok && b.expires <= now {
			ok = false
		}
		if ok && m.YourIP != 0 && m.YourIP != b.ip {
			// Client asked for a stale cached address someone else holds.
			resp := Message{Op: Nak, XID: m.XID, ClientMAC: m.ClientMAC, ServerID: s.cfg.ServerID}
			s.replies.ArmAfter(s.cfg.AckLatency.Sample(s.rng)+extra, resp, respNak)
			return
		}
		if !ok {
			// REQUEST-first (cached lease) from a client we do not know:
			// honor it if the address is plausible and free, else NAK.
			if m.YourIP != 0 && s.ipFree(m.YourIP) && s.inPool(m.YourIP) {
				b = binding{ip: m.YourIP}
				s.bindings[m.ClientMAC] = b
				ok = true
			} else {
				resp := Message{Op: Nak, XID: m.XID, ClientMAC: m.ClientMAC, ServerID: s.cfg.ServerID}
				s.replies.ArmAfter(s.cfg.AckLatency.Sample(s.rng)+extra, resp, respNak)
				return
			}
		}
		b.expires = now + s.cfg.LeaseDur
		s.bindings[m.ClientMAC] = b
		resp := Message{Op: Ack, XID: m.XID, ClientMAC: m.ClientMAC,
			YourIP: b.ip, ServerID: s.cfg.ServerID, LeaseSecs: uint32(s.cfg.LeaseDur.Seconds())}
		s.replies.ArmAfter(s.cfg.AckLatency.Sample(s.rng)+extra, resp, respAck)
	default:
		// A server receiving a server-side op (Offer/Ack/Nak) means some
		// component routed a frame backwards — count it, don't crash.
		s.inv.Violate("dhcp.server.client-op")
	}
}

func (s *Server) inPool(ip IP) bool {
	return ip >= s.cfg.PoolStart && ip < s.cfg.PoolStart+IP(s.cfg.PoolSize)
}

func (s *Server) ipFree(ip IP) bool {
	now := s.kernel.Now()
	for _, b := range s.bindings {
		if b.ip == ip && b.expires > now {
			return false
		}
	}
	return true
}

// lookupOrAllocate returns the client's existing binding or carves a new
// address from the pool.
func (s *Server) lookupOrAllocate(mac wifi.Addr) (IP, bool) {
	now := s.kernel.Now()
	if b, ok := s.bindings[mac]; ok && b.expires > now {
		return b.ip, true
	}
	for i := 0; i < s.cfg.PoolSize; i++ {
		ip := s.cfg.PoolStart + IP((s.sc.NextIP+i)%s.cfg.PoolSize)
		if s.ipFree(ip) {
			s.sc.NextIP = (s.sc.NextIP + i + 1) % s.cfg.PoolSize
			s.bindings[mac] = binding{ip: ip, expires: now + s.cfg.LeaseDur}
			return ip, true
		}
	}
	return 0, false
}
