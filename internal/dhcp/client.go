package dhcp

import (
	"math/rand"
	"time"

	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// ClientConfig holds the client-side timeout policy — the knobs the
// paper sweeps in §4.5 and Table 3.
type ClientConfig struct {
	// RetxTimeout is the per-message retransmission timer. The stock
	// default is 1 s; the reduced configurations use 100–600 ms.
	RetxTimeout time.Duration
	// AttemptWindow bounds one acquisition attempt end to end. The stock
	// client "attempts to acquire a lease for 3 seconds".
	AttemptWindow time.Duration
	// IdleAfterFail is how long the stock client sulks after a failed
	// window ("it is idle for 60 seconds if it fails"). The driver decides
	// whether to honor it; Spider's per-AP retry logic uses shorter holds.
	IdleAfterFail time.Duration
}

// DefaultClientConfig is the stock DHCP policy.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		RetxTimeout:   time.Second,
		AttemptWindow: 3 * time.Second,
		IdleAfterFail: 60 * time.Second,
	}
}

// ReducedClientConfig returns the paper's reduced-timeout policy with the
// given per-message timer (100–600 ms in the evaluation). The attempt
// window stays at the stock 3 s — only the per-message timer shrinks,
// which is exactly the trade §4.5 measures: faster successful joins, but
// a roughly two-fold increase in failure rate, because every premature
// retransmission abandons an exchange whose response was still in flight.
func ReducedClientConfig(retx time.Duration) ClientConfig {
	return ClientConfig{
		RetxTimeout:   retx,
		AttemptWindow: 3 * time.Second,
		IdleAfterFail: 5 * time.Second,
	}
}

func (c ClientConfig) withDefaults() ClientConfig {
	d := DefaultClientConfig()
	if c.RetxTimeout <= 0 {
		c.RetxTimeout = d.RetxTimeout
	}
	if c.AttemptWindow <= 0 {
		c.AttemptWindow = d.AttemptWindow
	}
	if c.IdleAfterFail <= 0 {
		c.IdleAfterFail = d.IdleAfterFail
	}
	return c
}

// Result reports the outcome of one acquisition attempt.
type Result struct {
	Success  bool
	IP       IP
	LeaseDur time.Duration
	Elapsed  time.Duration // from Start to outcome
	Retx     int           // retransmissions sent
	FastPath bool          // succeeded via cached-lease REQUEST-first
}

type clientState uint8

const (
	stateIdle clientState = iota
	stateDiscovering
	stateRequesting
	stateBound
)

// ClientHost is the owner a Client reports through. The driver's
// virtual interface is the host in a simulation; tests supply a small
// one.
type ClientHost interface {
	// SendDHCP transmits a client message toward the AP. It may drop
	// the message silently (while the radio is off the AP's channel —
	// that is the point of the paper). m is the client's scratch: the
	// host encodes it before returning and never retains it.
	SendDHCP(m *Message)
	// DHCPResult reports the outcome of an acquisition attempt.
	DHCPResult(res Result)
}

// Client is one virtual interface's DHCP client state machine. It is
// transport-agnostic: its host carries messages out, and the driver
// feeds incoming ones to HandleMessage.
type Client struct {
	kernel *sim.Kernel
	cfg    ClientConfig
	mac    wifi.Addr
	host   ClientHost
	rng    *rand.Rand

	sc clientScalars

	// The two timers fire through the client itself (Fire), so arming
	// them allocates nothing.
	retxTimer sim.Event
	deadline  sim.Event
	// msg is the send scratch: the host encodes it synchronously and
	// never retains the pointer.
	msg Message

	// inv counts impossible-state transitions (nil-safe; see SetInvariants).
	inv *metrics.InvariantSet
	// tr, when set, records each acquisition attempt as a trace span
	// plus instants for offer/ack/nak arrivals.
	tr *obs.Tracer
}

// clientScalars are a DHCP client's plain evolving fields, checkpointed
// whole.
type clientScalars struct {
	State    clientState
	FastPath bool // beside State, so the two share one word
	XID      uint32
	NextXID  uint32
	Offered  IP
	Started  time.Duration
	RetxN    int
}

// Init sets up c in place as the client for the interface with the
// given MAC, so an owner can embed the client by value instead of
// allocating it separately.
func (c *Client) Init(k *sim.Kernel, cfg ClientConfig, mac wifi.Addr, host ClientHost) {
	if host == nil {
		panic("dhcp: client needs a host")
	}
	*c = Client{
		kernel: k, cfg: cfg.withDefaults(), mac: mac,
		host: host, sc: clientScalars{NextXID: 1},
		rng: clientStream(k, mac),
	}
}

// Client timer kinds, for Fire.
const (
	timerRetx     uint8 = iota // the current exchange timed out
	timerDeadline              // the attempt window ran out
)

// Fire implements sim.Handler: the client's timers fire through it.
func (c *Client) Fire(kind uint8) {
	if kind == timerDeadline {
		c.fail()
		return
	}
	c.onRetx()
}

// clientStream returns the per-MAC stream "dhcp.client.<mac>". The name
// is assembled on the stack, so finding an existing stream allocates
// nothing.
func clientStream(k *sim.Kernel, mac wifi.Addr) *rand.Rand {
	var buf [32]byte // the prefix and one address: 29 bytes
	b := append(buf[:0], "dhcp.client."...)
	return k.RNGBytes(mac.AppendTo(b))
}

// Reset returns a recycled client to the state a freshly Init-ed client
// would have: idle, transaction ids restarted, per-association counters
// cleared. The driver calls it when it re-targets a pooled interface at
// a new AP; the RNG stream is per-MAC and persistent, so a reused client
// draws exactly what a fresh one would.
func (c *Client) Reset() {
	c.stopTimers()
	c.sc = clientScalars{NextXID: 1}
}

// SetInvariants points the client at a shared invariant-violation set.
// A nil set (the default) is safe: violations are simply not counted.
func (c *Client) SetInvariants(inv *metrics.InvariantSet) { c.inv = inv }

// SetTracer attaches a trace sink for acquisition spans. A nil tracer
// (the default) records nothing and costs one branch per outcome.
func (c *Client) SetTracer(tr *obs.Tracer) { c.tr = tr }

// TimersPending reports whether any client timer event is still armed —
// after Abort it must be false, or the owner leaked a timer.
func (c *Client) TimersPending() bool { return c.retxTimer.Pending() || c.deadline.Pending() }

// Start begins an acquisition attempt. If cachedIP is nonzero the client
// tries the REQUEST-first fast path ("caching dhcp leases... essential
// for multi-AP systems", §2.1.2). Starting while busy restarts the
// attempt.
func (c *Client) Start(cachedIP IP) {
	c.stopTimers()
	c.sc.Started = c.kernel.Now()
	c.sc.RetxN = 0
	c.sc.XID = c.sc.NextXID
	c.sc.NextXID++
	c.deadline = c.kernel.FireAfter(c.cfg.AttemptWindow, c, timerDeadline)
	if cachedIP != 0 {
		c.sc.State = stateRequesting
		c.sc.Offered = cachedIP
		c.sc.FastPath = true
		c.sendCurrent()
		return
	}
	c.sc.FastPath = false
	c.sc.State = stateDiscovering
	c.sendCurrent()
}

// Abort cancels any attempt in flight without reporting a result. The
// driver calls it when the underlying association is lost.
func (c *Client) Abort() {
	c.stopTimers()
	c.sc.State = stateIdle
}

func (c *Client) stopTimers() {
	c.retxTimer.Cancel()
	c.retxTimer = sim.Event{}
	c.deadline.Cancel()
	c.deadline = sim.Event{}
}

func (c *Client) sendCurrent() {
	switch c.sc.State {
	case stateDiscovering:
		c.msg = Message{Op: Discover, XID: c.sc.XID, ClientMAC: c.mac}
	case stateRequesting:
		c.msg = Message{Op: Request, XID: c.sc.XID, ClientMAC: c.mac, YourIP: c.sc.Offered}
	default:
		// A send can only be driven by Start or a live timer; reaching it
		// idle/bound means a stale timer outlived its state machine.
		c.inv.Violate("dhcp.client.send-while-idle")
		return
	}
	c.host.SendDHCP(&c.msg)
	// RFC 2131 §4.1: retransmission timers double on each retry (up to a
	// cap) and carry randomized jitter. The jitter, beyond congestion
	// etiquette, breaks phase locks between the timer and a virtualized
	// driver's channel schedule. The cap is 8× the first timer: quick
	// first retries recover losses, later patient ones give slow servers
	// a chance inside the attempt window.
	timeout := c.cfg.RetxTimeout << uint(c.sc.RetxN)
	if limit := 8 * c.cfg.RetxTimeout; timeout > limit {
		timeout = limit
	}
	jitter := time.Duration((c.rng.Float64()*0.4 - 0.2) * float64(timeout))
	c.retxTimer = c.kernel.FireAfter(timeout+jitter, c, timerRetx)
}

// onRetx restarts a timed-out exchange under a fresh transaction id, like
// real clients; a response to the abandoned request that arrives later is
// discarded as stale. This is why reducing the timer below the server's
// think-time raises the failure rate.
func (c *Client) onRetx() {
	c.retxTimer = sim.Event{}
	c.sc.RetxN++
	c.sc.XID = c.sc.NextXID
	c.sc.NextXID++
	c.sendCurrent()
}

func (c *Client) fail() {
	c.deadline = sim.Event{} // we are its firing; the handle is spent
	if c.sc.State != stateDiscovering && c.sc.State != stateRequesting {
		// A deadline can only fire during a live attempt; anything else is
		// a timer that outlived Abort/completion.
		c.inv.Violate("dhcp.client.deadline-while-idle")
		return
	}
	c.stopTimers()
	c.sc.State = stateIdle
	if c.tr != nil {
		c.tr.Complete("dhcp", "acquire", c.sc.Started,
			obs.S("result", "failed"), obs.I("retx", int64(c.sc.RetxN)))
	}
	c.host.DHCPResult(Result{Success: false, Elapsed: c.kernel.Now() - c.sc.Started, Retx: c.sc.RetxN})
}

// HandleMessage processes a server message addressed to this client.
func (c *Client) HandleMessage(m *Message) {
	if m.ClientMAC != c.mac || m.XID != c.sc.XID {
		return // stale or foreign
	}
	switch m.Op {
	case Offer:
		if c.sc.State != stateDiscovering {
			return
		}
		if c.tr != nil {
			c.tr.Instant("dhcp", "offer", obs.S("ip", m.YourIP.String()))
		}
		c.retxTimer.Cancel()
		c.retxTimer = sim.Event{}
		c.sc.State = stateRequesting
		c.sc.Offered = m.YourIP
		c.sendCurrent()
	case Ack:
		if c.sc.State != stateRequesting {
			return
		}
		c.stopTimers()
		c.sc.State = stateBound
		if c.tr != nil {
			c.tr.Complete("dhcp", "acquire", c.sc.Started,
				obs.S("result", "ok"), obs.S("ip", m.YourIP.String()),
				obs.I("retx", int64(c.sc.RetxN)))
		}
		c.host.DHCPResult(Result{
			Success: true, IP: m.YourIP,
			LeaseDur: time.Duration(m.LeaseSecs) * time.Second,
			Elapsed:  c.kernel.Now() - c.sc.Started,
			Retx:     c.sc.RetxN, FastPath: c.sc.FastPath,
		})
	case Nak:
		if c.sc.State != stateRequesting {
			return
		}
		if c.tr != nil {
			c.tr.Instant("dhcp", "nak", obs.S("ip", c.sc.Offered.String()))
		}
		// Cached address rejected: fall back to full discovery inside the
		// same attempt window.
		c.retxTimer.Cancel()
		c.retxTimer = sim.Event{}
		c.sc.FastPath = false
		c.sc.State = stateDiscovering
		c.sc.XID = c.sc.NextXID
		c.sc.NextXID++
		c.sendCurrent()
	}
}
