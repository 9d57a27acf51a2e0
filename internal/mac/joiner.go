package mac

import (
	"math/rand"
	"time"

	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// JoinConfig holds the client-side link-layer timeout policy.
//
// Per the paper (footnote 1): "The link-layer timeout reflects a timer
// for each message in a multi-step protocol — not a timeout for the
// entire request-response process." The stock timer is 1 s; Eriksson et
// al.'s reduction to 100 ms is the configuration the paper evaluates.
type JoinConfig struct {
	// LinkTimeout is the per-message retransmission timer.
	LinkTimeout time.Duration
	// MaxRetries bounds retransmissions per message before the join
	// attempt is declared failed.
	MaxRetries int
}

// DefaultJoinConfig is the stock 802.11 supplicant policy.
func DefaultJoinConfig() JoinConfig {
	return JoinConfig{LinkTimeout: time.Second, MaxRetries: 3}
}

// ReducedJoinConfig is the fast-handoff policy (100 ms timers). The
// shorter timer buys more retries within the same patience budget — the
// whole point of the reduction is recovering lost handshake frames
// quickly, and on a sliced schedule several retries land off-channel.
func ReducedJoinConfig() JoinConfig {
	return JoinConfig{LinkTimeout: 100 * time.Millisecond, MaxRetries: 10}
}

func (c JoinConfig) withDefaults() JoinConfig {
	d := DefaultJoinConfig()
	if c.LinkTimeout <= 0 {
		c.LinkTimeout = d.LinkTimeout
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = d.MaxRetries
	}
	return c
}

// JoinStage identifies how far a join attempt progressed.
type JoinStage uint8

// Stages of the link-layer join.
const (
	StageIdle JoinStage = iota
	StageAuth
	StageAssoc
	StageAssociated
)

func (s JoinStage) String() string {
	switch s {
	case StageIdle:
		return "idle"
	case StageAuth:
		return "auth"
	case StageAssoc:
		return "assoc"
	case StageAssociated:
		return "associated"
	}
	return "unknown"
}

// AssocResult reports the outcome of a link-layer join attempt.
type AssocResult struct {
	Success bool
	Stage   JoinStage // stage reached (on failure, where it stalled)
	Elapsed time.Duration
}

// JoinHost is the owner a Joiner reports through. The driver's virtual
// interface is the host in a simulation; tests supply a small one.
type JoinHost interface {
	// SendJoinFrame transmits a handshake frame toward the target AP.
	// It may drop the frame silently, e.g. while the radio is off the
	// AP's channel.
	SendJoinFrame(f *wifi.Frame)
	// JoinResult reports the outcome of a join attempt.
	JoinResult(res AssocResult)
}

// Joiner runs the client-side link-layer join (auth + assoc) against one
// AP. Scanning happens elsewhere (the driver owns the channel); the
// Joiner assumes the target BSSID and SSID are known.
//
// The Joiner is transport-agnostic: its host may silently drop a frame
// when the radio is off the AP's channel, and responses arrive only
// while the driver dwells there — which is exactly the coupling between
// schedule and join success the paper models.
type Joiner struct {
	kernel *sim.Kernel
	cfg    JoinConfig
	self   wifi.Addr
	bssid  wifi.Addr
	ssid   string
	host   JoinHost
	pool   *wifi.Pool // the medium's frame pool (nil under NoPool)

	sc joinerScalars
	// timer is the retransmission timeout; it fires through the joiner
	// itself (Fire), so arming it allocates nothing.
	timer sim.Event
	rng   *rand.Rand

	// inv counts impossible-state transitions (nil-safe; see SetInvariants).
	inv *metrics.InvariantSet
	// tr, when set, records each handshake phase as a trace span.
	tr *obs.Tracer
}

// joinerScalars are a joiner's plain evolving fields, checkpointed
// whole.
type joinerScalars struct {
	Stage   JoinStage
	Seq     uint16 // beside Stage, so the two share one word
	Retries int
	Started time.Duration
	// StageStart is the kernel time the current phase began.
	StageStart time.Duration
}

// Init sets up j in place as the join engine for one (client, AP) pair,
// so an owner can embed the joiner by value instead of allocating it
// separately.
func (j *Joiner) Init(k *sim.Kernel, cfg JoinConfig, self, bssid wifi.Addr, ssid string, host JoinHost) {
	if host == nil {
		panic("mac: joiner needs a host")
	}
	*j = Joiner{
		kernel: k, cfg: cfg.withDefaults(),
		self: self, bssid: bssid, ssid: ssid,
		host: host,
		rng:  joinerStream(k, self, bssid),
	}
}

// joinerStream returns the (client, BSSID) stream, named
// "mac.joiner.<self><bssid>". The name is assembled on the stack, so
// finding an existing stream allocates nothing.
func joinerStream(k *sim.Kernel, self, bssid wifi.Addr) *rand.Rand {
	var buf [64]byte // the prefix and two addresses: 45 bytes
	b := append(buf[:0], "mac.joiner."...)
	b = self.AppendTo(b)
	b = bssid.AppendTo(b)
	return k.RNGBytes(b)
}

// ResetTarget re-points a recycled joiner at a new AP, restoring the
// state a freshly Init-ed joiner would have. RNG streams are named per
// (client, BSSID) and persistent in the kernel, so a reused joiner draws
// exactly the values a newly constructed one would.
func (j *Joiner) ResetTarget(bssid wifi.Addr, ssid string) {
	j.cancelTimer()
	j.sc = joinerScalars{}
	j.bssid, j.ssid = bssid, ssid
	j.rng = joinerStream(j.kernel, j.self, bssid)
}

// SetPool points the joiner at the medium's frame pool: its auth and
// assoc requests are drawn from it and recycled by the medium at
// transmit completion. A nil pool (the default, and the medium's pool
// under NoPool) allocates each request fresh.
func (j *Joiner) SetPool(p *wifi.Pool) { j.pool = p }

// SetInvariants points the joiner at a shared invariant-violation set.
// A nil set (the default) is safe: violations are simply not counted.
func (j *Joiner) SetInvariants(inv *metrics.InvariantSet) { j.inv = inv }

// SetTracer attaches a trace sink for handshake phase spans. A nil
// tracer (the default) records nothing and costs one branch per phase
// transition.
func (j *Joiner) SetTracer(tr *obs.Tracer) { j.tr = tr }

// TimerPending reports whether the per-message timer is still armed —
// after Abort it must be false, or the owner leaked a timer.
func (j *Joiner) TimerPending() bool { return j.timer.Pending() }

// Busy reports whether a join attempt is in flight.
func (j *Joiner) Busy() bool { return j.sc.Stage == StageAuth || j.sc.Stage == StageAssoc }

// Start begins a join attempt. Restarts any attempt in flight.
func (j *Joiner) Start() {
	j.cancelTimer()
	j.sc.Started = j.kernel.Now()
	j.sc.StageStart = j.sc.Started
	j.sc.Retries = 0
	j.sc.Stage = StageAuth
	j.sendCurrent()
}

// Abort cancels the attempt without reporting a result.
func (j *Joiner) Abort() {
	j.cancelTimer()
	j.sc.Stage = StageIdle
}

func (j *Joiner) cancelTimer() {
	j.timer.Cancel()
	j.timer = sim.Event{}
}

func (j *Joiner) nextSeq() uint16 {
	j.sc.Seq++
	return j.sc.Seq
}

func (j *Joiner) sendCurrent() {
	var t wifi.FrameType
	var body wifi.Body
	switch j.sc.Stage {
	case StageAuth:
		t, body = wifi.TypeAuthReq, authOpenBody
	case StageAssoc:
		ab := j.pool.AssocReq()
		ab.SSID, ab.ListenInterval = j.ssid, 10
		t, body = wifi.TypeAssocReq, ab
	default:
		// Sends are driven by Start or a live timer; reaching here idle or
		// associated means a stale timer outlived its state machine.
		j.inv.Violate("mac.joiner.send-while-idle")
		return
	}
	f := j.pool.Frame()
	f.Type = t
	f.SA, f.DA, f.BSSID = j.self, j.bssid, j.bssid
	f.Seq = j.nextSeq()
	f.Body = body
	j.host.SendJoinFrame(f)
	// Jitter the per-message timer (±20%) so retransmissions cannot
	// phase-lock against a channel schedule whose period divides it.
	jitter := time.Duration((j.rng.Float64()*0.4 - 0.2) * float64(j.cfg.LinkTimeout))
	j.timer = j.kernel.FireAfter(j.cfg.LinkTimeout+jitter, j, 0)
}

// Fire implements sim.Handler: the joiner's one timer, the
// retransmission timeout, fires through it.
func (j *Joiner) Fire(uint8) { j.onTimeout() }

func (j *Joiner) onTimeout() {
	j.timer = sim.Event{} // we are its firing; the handle is spent
	if !j.Busy() {
		j.inv.Violate("mac.joiner.timeout-while-idle")
		return
	}
	j.sc.Retries++
	if j.sc.Retries > j.cfg.MaxRetries {
		stage := j.sc.Stage
		j.sc.Stage = StageIdle
		if j.tr != nil {
			j.tr.Complete("mac.join", stage.String(), j.sc.StageStart,
				obs.S("bssid", j.bssid.String()), obs.S("result", "failed"))
		}
		j.host.JoinResult(AssocResult{Success: false, Stage: stage,
			Elapsed: j.kernel.Now() - j.sc.Started})
		return
	}
	j.sendCurrent()
}

// HandleFrame processes a frame from the target AP.
func (j *Joiner) HandleFrame(f *wifi.Frame) {
	if f.SA != j.bssid || f.DA != j.self {
		return
	}
	switch f.Type {
	case wifi.TypeAuthResp:
		if j.sc.Stage != StageAuth {
			return
		}
		body, ok := f.Body.(*wifi.AuthBody)
		if !ok || body.Status != 0 {
			return
		}
		j.cancelTimer()
		j.sc.Retries = 0
		if j.tr != nil {
			j.tr.Complete("mac.join", "auth", j.sc.StageStart,
				obs.S("bssid", j.bssid.String()))
		}
		j.sc.StageStart = j.kernel.Now()
		j.sc.Stage = StageAssoc
		j.sendCurrent()
	case wifi.TypeAssocResp:
		if j.sc.Stage != StageAssoc {
			return
		}
		body, ok := f.Body.(*wifi.AssocRespBody)
		if !ok || body.Status != 0 {
			return
		}
		j.cancelTimer()
		j.sc.Stage = StageAssociated
		if j.tr != nil {
			j.tr.Complete("mac.join", "assoc", j.sc.StageStart,
				obs.S("bssid", j.bssid.String()))
		}
		j.host.JoinResult(AssocResult{Success: true, Stage: StageAssociated,
			Elapsed: j.kernel.Now() - j.sc.Started})
	case wifi.TypeDeauth:
		if j.sc.Stage == StageAssociated {
			j.sc.Stage = StageIdle
		}
	}
}
