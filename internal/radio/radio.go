// Package radio models the shared 802.11 medium: per-channel broadcast
// domains with finite range, per-frame loss, airtime serialization, and
// radio devices that can be tuned, suspended for hardware resets, and
// switched between channels.
//
// The package encodes the physical mechanism behind the paper's results:
// a frame is delivered only if the receiver is tuned to the transmit
// channel and inside range *at the instant the frame ends*. A client that
// switched away while an AP's join response was in flight simply never
// sees it — exactly the failure the analytical model in §2.1.1 counts.
package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// Config parameterizes the medium. Zero fields take the paper's defaults
// via Defaults.
type Config struct {
	// Range is the usable radius in meters (paper: 100 m).
	Range float64
	// Loss is the per-frame, per-receiver loss probability h (paper: 0.1).
	Loss float64
	// EdgeStart is the fraction of Range beyond which loss ramps linearly
	// from Loss to 1, modeling the degraded fringe of real coverage.
	// Set to 1 for the paper's hard-disk model.
	EdgeStart float64
	// CSRange is the carrier-sense radius in meters: stations within it
	// defer to each other's transmissions on the same channel. Stations
	// farther apart reuse the channel spatially — two APs across town do
	// not share airtime. Defaults to 2×Range.
	CSRange float64
	// DataRetryLimit is the number of MAC-level retransmissions for
	// unicast data frames (802.11 ARQ). Management frames are NOT retried
	// at the MAC: the paper's model treats each join message as subject
	// to loss h, with recovery left to client-level timers.
	DataRetryLimit int
	// DataRateKbps is the modulation rate for data frames. Defaults to
	// the paper's analytical Bw of 11 Mbps; the outdoor testbed saw
	// 802.11g rates ("802.11G is now widely available"), so drive
	// scenarios set 24000.
	DataRateKbps int
	// HiddenCollisions, when true, corrupts a reception whenever another
	// transmission the sender could not carrier-sense overlaps it at the
	// receiver — the classic hidden-terminal failure. Off by default: the
	// paper's model folds all loss into h.
	HiddenCollisions bool
	// NoPool disables the medium's frame/body pool: every frame is a
	// fresh allocation and nothing is recycled, exactly the pre-pooling
	// allocator behavior. Results are byte-identical either way (the
	// pooling equivalence tests enforce it); the unpooled path exists as
	// the reference implementation and for before/after benchmarking.
	NoPool bool
}

// Defaults returns the configuration used throughout the paper's
// experiments.
func Defaults() Config {
	return Config{Range: 100, Loss: 0.10, EdgeStart: 0.85, CSRange: 200, DataRetryLimit: 6}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Range <= 0 {
		c.Range = d.Range
	}
	if c.Loss < 0 {
		c.Loss = 0
	}
	if c.EdgeStart <= 0 || c.EdgeStart > 1 {
		c.EdgeStart = d.EdgeStart
	}
	if c.CSRange <= 0 {
		c.CSRange = 2 * c.Range
	}
	if c.DataRetryLimit < 0 {
		c.DataRetryLimit = 0
	}
	if c.DataRateKbps <= 0 {
		c.DataRateKbps = wifi.DataRateKbps
	}
	return c
}

// Receiver is the upcall interface a radio owner implements.
type Receiver interface {
	// RadioReceive is invoked for each frame the radio successfully
	// receives. It runs inside the simulation event loop; implementations
	// must not block.
	RadioReceive(f *wifi.Frame)
	// TxDone is invoked when the MAC finishes with a frame the owner
	// sent with a tag (SendTagged): delivered, retries exhausted, or
	// flushed on a channel change. The tag is the completion's only
	// identity, so a restored queue needs no rebinding.
	TxDone(tag TxTag, delivered bool)
}

// ReceiverFunc adapts a function to the Receiver interface; it ignores
// transmit completions.
type ReceiverFunc func(f *wifi.Frame)

// RadioReceive implements Receiver.
func (fn ReceiverFunc) RadioReceive(f *wifi.Frame) { fn(f) }

// TxDone implements Receiver.
func (ReceiverFunc) TxDone(TxTag, bool) {}

// Medium is the shared air. All radios in one Medium can interfere; the
// per-channel airtime ledger serializes transmissions exactly as a
// single collision domain would.
type Medium struct {
	kernel *sim.Kernel
	cfg    Config
	rng    *rand.Rand
	radios []*Radio // registration order; the linear-scan iteration order

	// idx is the per-channel/spatial registry. Only radio's tests set it
	// to nil, selecting the reference linear scan over radios.
	idx *mediumIndex
	// byAddr resolves a unicast DA to its first registration, so
	// off-channel and out-of-range stats survive the indexed path.
	// reregistered holds, per address, the radios registered under it
	// since, in registration order: a shard tile re-adopting a client that
	// migrated away registers a fresh radio under the address of the one it
	// retired. Between them they name every radio carrying an address.
	byAddr       map[wifi.Addr]*Radio
	reregistered map[wifi.Addr][]*Radio
	// promiscuous counts the radios with promiscuous reception on. While
	// it is zero only addressed radios can take a unicast, so delivery
	// resolves the receivers by address instead of walking the medium.
	promiscuous int
	// dlScratch holds delivery candidates, reused across frames. Delivery
	// never nests: a receive upcall may transmit, but frames end in their
	// own events, and the carrier-sense walk needs no buffer.
	dlScratch []*Radio

	// tap, when set, observes every frame at end of transmission
	// (independent of delivery outcome) — the capture hook.
	tap func(f *wifi.Frame, ch int, at time.Duration)

	// txObs, when set, observes every frame at end of transmission along
	// with the sender's position at that instant. The shard runtime uses
	// it to capture broadcasts that land inside a neighboring shard's halo.
	txObs func(f *wifi.Frame, ch int, at time.Duration, txPos geo.Point)

	// pool recycles hot frame/body allocations through the transmit
	// completion path (nil under Config.NoPool). Owned by the medium's
	// kernel goroutine; see wifi.Pool for the ownership rules.
	pool *wifi.Pool

	// burst holds per-channel additive loss while a fault-injected
	// interference episode is active (nil when no episode ever ran). The
	// boost perturbs only the loss comparison, never the RNG draw — the
	// draw happens once per delivery candidate regardless — so enabling
	// an episode cannot shift any other stream's randomness.
	burst map[int]float64

	// active tracks in-flight transmissions for hidden-terminal checks.
	active []activeTx

	// Counters for tests and metrics.
	stats Stats
}

// SetTap installs a frame observer invoked once per transmission at the
// instant the frame leaves the air, regardless of delivery outcome.
// Passing nil removes the tap.
func (m *Medium) SetTap(tap func(f *wifi.Frame, ch int, at time.Duration)) { m.tap = tap }

// SetTxObserver installs an observer invoked once per transmission at the
// instant the frame leaves the air, with the transmitter's position at
// that instant (the position delivery is evaluated against). Passing nil
// removes the observer.
func (m *Medium) SetTxObserver(fn func(f *wifi.Frame, ch int, at time.Duration, txPos geo.Point)) {
	m.txObs = fn
}

// InjectFrame delivers f to every eligible receiver as if a ghost
// transmitter at txPos had just finished sending it on ch: channel,
// range, and random-loss checks apply exactly as for a local frame, but
// no airtime is consumed and no carrier sense is performed — the frame's
// airtime was already paid on the medium it originated on. The shard
// runtime uses it to mirror halo-crossing broadcasts from a neighboring
// shard at an epoch boundary.
//
// The caller keeps ownership of f: injected frames are never recycled
// into this medium's pool (they were allocated elsewhere).
func (m *Medium) InjectFrame(f *wifi.Frame, ch int, txPos geo.Point) {
	m.stats.HaloInjected++
	m.deliver(nil, txPos, f, ch, 0)
}

// Stats aggregates medium-level counters.
type Stats struct {
	Transmitted     uint64 // frames offered to the air
	Delivered       uint64 // successful frame deliveries (per receiver)
	LostRandom      uint64 // deliveries suppressed by random loss
	MissedAway      uint64 // deliveries suppressed: receiver off-channel/suspended
	OutOfRange      uint64 // deliveries suppressed: receiver out of range
	Retries         uint64 // MAC-level data retransmissions
	FlushedOnRetune uint64 // frames discarded from a MAC queue after a channel change
	Collisions      uint64 // receptions corrupted by hidden terminals
	CSDeferred      uint64 // transmissions delayed by a carrier-sense busy medium
	HaloInjected    uint64 // ghost frames mirrored in from a neighboring shard
}

// NewMedium creates a medium bound to the kernel.
func NewMedium(k *sim.Kernel, cfg Config) *Medium {
	m := &Medium{
		kernel:       k,
		cfg:          cfg.withDefaults(),
		rng:          k.RNG("radio.loss"),
		byAddr:       make(map[wifi.Addr]*Radio),
		reregistered: make(map[wifi.Addr][]*Radio),
	}
	m.idx = newMediumIndex(m.cfg)
	if !m.cfg.NoPool {
		m.pool = &wifi.Pool{}
	}
	return m
}

// Pool returns the medium's frame pool — nil under Config.NoPool, which
// every pool method accepts (a nil pool allocates fresh and never
// recycles). Frame producers (APs, drivers, the TCP/DHCP payload
// builders) draw from it; the medium recycles at transmit completion.
func (m *Medium) Pool() *wifi.Pool { return m.pool }

// Stats returns a snapshot of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// SetBurstLoss sets the additive per-frame loss applied on one channel
// (clamped into [0,1] at delivery time). Zero clears the episode. The
// fault injector uses it for lossy-burst interference episodes.
func (m *Medium) SetBurstLoss(ch int, extra float64) {
	if m.burst == nil {
		if extra == 0 {
			return
		}
		m.burst = make(map[int]float64)
	}
	if extra == 0 {
		delete(m.burst, ch)
		return
	}
	m.burst[ch] = extra
}

// Kernel returns the simulation kernel the medium runs on.
func (m *Medium) Kernel() *sim.Kernel { return m.kernel }

// Radio is one physical wireless interface.
type Radio struct {
	// The fields carrier sense and delivery read of every radio a
	// neighborhood walk visits come first and fill the first 64 bytes: a
	// Radio is 320 bytes, an allocation class whose objects start on
	// 64-byte boundaries, so a visit touches one cache line.
	//
	// Position cache (see position and within): the last sample of mob
	// and the virtual instant it was taken at; posFixed marks a sample
	// that holds for all time (a static radio's position, a parked
	// radio's first sample). Derived state — never checkpointed; a
	// restored radio simply samples afresh.
	posVal geo.Point
	posAt  time.Duration
	// maxSpeed is the mobility model's speed bound, negative when
	// none is.
	maxSpeed    float64
	channel     int
	busyUntil   time.Duration // airtime deferral from carrier sense
	suspendedTo time.Duration // hardware reset in progress until this time
	posValid    bool          // posVal holds a sample
	posFixed    bool
	promiscuous bool
	// static radios (NewStaticRadio) are indexed in the static grid under
	// their fixed position (binCell is its cell); mobile radios live in
	// their channel's mobile list.
	static  bool
	qbValid uint8 // bit set per kind when qbLo/qbHi[kind] match qbPos

	m    *Medium
	addr wifi.Addr
	mob  geo.Mobility // nil for a static radio, whose posVal is fixed
	rx   Receiver

	// regIdx is the registration-order index in Medium.radios; candidate
	// sets sort by it to reproduce the linear scan's iteration order.
	regIdx  int32
	binCell cellKey

	// Query-bounds cache: the grid-cell rectangle covering this radio's
	// last carrier-sense (kind 0) and delivery (kind 1) query, valid while
	// the sampled position still equals qbPos. A station transmitting
	// several frames from one spot — every AP, and any mobile between
	// moves — rehashes its cell once instead of once per frame.
	qbPos geo.Point
	qbLo  [2]cellKey
	qbHi  [2]cellKey

	// The in-flight retune (see Retune): target channel and the
	// caller's completion, fired with retuneKind. At most one retune is
	// in flight (the only overlapping caller, the driver's switch
	// supersede, cancels the pending event before retuning again), so
	// they live in fields.
	retuneCh   int
	retuneDone sim.Handler
	retuneKind uint8

	// FIFO transmit queue: like a real MAC, the head frame blocks the
	// line while ARQ retries it, so a station never reorders its own
	// traffic (reordering would trigger spurious TCP fast retransmits).
	// The head index makes pops free: advancing it keeps the backing
	// array, where re-slicing (txQueue = txQueue[1:]) would strand the
	// array's capacity and force append to reallocate on every frame.
	txQueue []txJob
	txHead  int
	txBusy  bool

	// In-flight transmission state: one frame is on the air at a time,
	// so per-transmit state lives in fields and the completion fires
	// through the radio itself (Fire), with no closure per frame.
	txF      *wifi.Frame
	txCh     int
	txDur    time.Duration
	txDoneEv sim.Event // the end-of-transmission event, for checkpointing

	air Airtime
}

// Airtime is a radio's accumulated state occupancy, the raw input of
// energy models (the §4.8 future-work item): transmit airtime, receive
// airtime, and hardware-reset time. Whatever remains of the elapsed time
// is idle listening.
type Airtime struct {
	Tx    time.Duration
	Rx    time.Duration
	Reset time.Duration
}

type activeTx struct {
	from       *Radio
	ch         int
	start, end time.Duration
	pos        geo.Point
}

type txJob struct {
	f       *wifi.Frame
	ch      int // channel the frame was queued for
	attempt int
	tag     TxTag // handed to the owner's TxDone unless TagNone
}

// NewRadio registers a radio that moves along mob. The medium samples
// mob at transmit and delivery times, so mob must be a pure function of
// virtual time: the medium samples it at most once per virtual instant
// (a parked radio, whose Speed is 0, only once), and carrier sense and
// delivery skip the sample altogether when the speed bound already
// places the radio relative to the transmitter (see within). mob.Speed
// bounds the radio's instantaneous speed, and the bound must hold at
// every instant, up to float and nanosecond rounding — a radio that
// outruns it can be placed out of range from a stale sample and
// silently miss deliveries or carrier sense. A negative Speed declares
// no bound. The radio starts untuned (channel 0): it hears nothing
// until SetChannel.
func (m *Medium) NewRadio(addr wifi.Addr, mob geo.Mobility, rx Receiver) *Radio {
	if mob == nil {
		panic("radio: mobility is required")
	}
	r := m.register(addr, rx)
	r.mob, r.maxSpeed = mob, mob.Speed()
	return r
}

// NewStaticRadio registers a radio that never moves (an access point).
// Static radios are tracked in the medium's spatial grid, so dense worlds
// pay per-neighborhood — not per-deployment — cost on every frame. The
// position is fixed here, so the radio has no mobility model.
func (m *Medium) NewStaticRadio(addr wifi.Addr, pos geo.Point, rx Receiver) *Radio {
	r := m.register(addr, rx)
	r.static = true
	r.posVal, r.posValid, r.posFixed = pos, true, true
	return r
}

// register adds an untuned radio to the medium.
func (m *Medium) register(addr wifi.Addr, rx Receiver) *Radio {
	if rx == nil {
		panic("radio: receiver is required")
	}
	r := &Radio{m: m, addr: addr, rx: rx, regIdx: int32(len(m.radios)),
		maxSpeed: -1, txQueue: make([]txJob, 0, 8)}
	m.radios = append(m.radios, r)
	if _, dup := m.byAddr[addr]; dup {
		m.reregistered[addr] = append(m.reregistered[addr], r)
	} else {
		m.byAddr[addr] = r
	}
	return r
}

// Addr returns the radio's MAC address.
func (r *Radio) Addr() wifi.Addr { return r.addr }

// Channel returns the tuned channel (0 = untuned).
func (r *Radio) Channel() int { return r.channel }

// position is the one place the medium reads a radio's position: the
// fixed position of a static radio; for a parked radio (declared speed
// bound 0) a sample taken once; otherwise mob memoized per virtual
// instant, since carrier sense, delivery and the hidden-terminal check
// can all ask about one radio at the same instant.
func (r *Radio) position() geo.Point {
	if r.posFixed {
		return r.posVal
	}
	now := r.m.kernel.Now()
	if !r.posValid || r.posAt != now {
		r.posVal, r.posAt, r.posValid = r.mob.PositionAt(now), now, true
		r.posFixed = r.maxSpeed == 0
	}
	return r.posVal
}

// boundTol is the tolerance, in meters plus meters per meter of radius
// and slack, that keeps a bound-decided range check (within) exact: it
// covers the rounding of the distance and slack arithmetic, and the
// overshoot of mobility models whose legs are truncated to whole
// nanoseconds (StopAndGo cruises ~1e-8 faster than its SpeedMS), by
// orders of magnitude.
const boundTol = 1e-6

// within reports whether r is within rad of p at now, always exactly as
// p.DistSq(r.position()) <= rad*rad does, deciding from the position
// cache when it can. A speed-bounded mobile has moved at most
// s = maxSpeed·(now − posAt) since its cached sample, so a sample farther
// from p than rad + s (plus boundTol) is out of range and one nearer than
// rad − s (minus boundTol) is in range, both without walking the mobility
// model. Only a radio the bound cannot place, or one with no bound or no
// sample, is sampled and checked exactly. The medium's indexed walks
// compare a fixed sample (posFixed: static and parked radios) in place
// before calling within, so that the common case costs no call.
func (r *Radio) within(p geo.Point, rad float64, now time.Duration) bool {
	if r.posValid && r.maxSpeed >= 0 && r.posAt < now {
		s := r.maxSpeed * 1e-9 * float64(now-r.posAt)
		s += boundTol * (1 + rad + s)
		d2 := p.DistSq(r.posVal)
		if out := rad + s; d2 > out*out {
			return false
		}
		if in := rad - s; in > 0 && d2 < in*in {
			return true
		}
	}
	return p.DistSq(r.position()) <= rad*rad
}

// SetPromiscuous controls whether the radio also receives unicast frames
// addressed to other stations (used by opportunistic scanning). On an
// indexed medium, a radio switched on inside a receive upcall while no
// other radio was promiscuous first hears the next frame to end, as a
// radio tuned to the channel inside an upcall does.
func (r *Radio) SetPromiscuous(on bool) {
	if on == r.promiscuous {
		return
	}
	r.promiscuous = on
	if on {
		r.m.promiscuous++
	} else {
		r.m.promiscuous--
	}
}

// SetChannel tunes the radio instantly. Access points tune once at
// startup; clients model the hardware-reset cost with Retune.
func (r *Radio) SetChannel(ch int) {
	if !wifi.Tunable(ch) {
		panic(fmt.Sprintf("radio: invalid channel %d", ch))
	}
	r.setChannel(ch)
}

// setChannel performs the tune and keeps the per-channel registries in
// sync. Every write to Radio.channel funnels through here.
func (r *Radio) setChannel(ch int) {
	old := r.channel
	if old == ch {
		return
	}
	r.channel = ch
	if ix := r.m.idx; ix != nil {
		if old != 0 {
			ix.remove(r, old)
		}
		if ch != 0 {
			ix.add(r, ch)
		}
	}
}

// Radio timer kinds, for Fire.
const (
	timerTxDone uint8 = iota // the in-flight frame leaves the air
	timerRetune              // a retune's hardware reset ends
)

// Fire implements sim.Handler: the radio's two timers fire through it.
func (r *Radio) Fire(kind uint8) {
	if kind == timerRetune {
		r.setChannel(r.retuneCh)
		if r.retuneDone != nil {
			r.retuneDone.Fire(r.retuneKind)
		}
		return
	}
	r.txComplete()
}

// Retune switches to ch after a hardware-reset delay during which the
// radio neither sends nor receives. done (optional) is fired with kind
// when the radio is usable on the new channel. This is the Table 1
// "hardware reset" component of Spider's switch cost. The returned
// event lets the caller cancel a retune it has decided to supersede —
// the radio stays deaf (channel 0) until someone retunes it again.
func (r *Radio) Retune(ch int, reset time.Duration, done sim.Handler, kind uint8) sim.Event {
	if !wifi.Tunable(ch) {
		panic(fmt.Sprintf("radio: invalid channel %d", ch))
	}
	now := r.m.kernel.Now()
	r.setChannel(0) // deaf while resetting
	r.air.Reset += reset
	if now+reset > r.suspendedTo {
		r.suspendedTo = now + reset
	}
	r.retuneCh, r.retuneDone, r.retuneKind = ch, done, kind
	return r.m.kernel.FireAfter(reset, r, timerRetune)
}

// RestoreRetune re-arms a checkpointed in-flight retune to ch, if es
// is pending. The radio's deaf channel, suspendedTo, and accumulated
// reset airtime were already restored through RestoreState; unlike
// Retune this adds nothing — it only re-creates the completion event.
// done and kind play the role of the original Retune completion.
func (r *Radio) RestoreRetune(ch int, es sim.EventState, done sim.Handler, kind uint8) (sim.Event, error) {
	if !es.Pending {
		return sim.Event{}, nil
	}
	if !wifi.Tunable(ch) {
		return sim.Event{}, fmt.Errorf("radio %s: retune restored to invalid channel %d", r.addr, ch)
	}
	r.retuneCh, r.retuneDone, r.retuneKind = ch, done, kind
	return es.Restore(r.m.kernel, r, timerRetune), nil
}

// Suspended reports whether the radio is mid-reset at time t.
func (r *Radio) Suspended(t time.Duration) bool { return t < r.suspendedTo }

// Send enqueues f for transmission on the radio's current channel. The
// MAC transmits strictly in FIFO order: the head frame occupies the
// station (and, via carrier sense, its neighborhood) for its TxTime and
// is delivered — or not — to each candidate receiver at the instant it
// ends. Unicast data frames get head-of-line MAC retransmissions up to
// the configured retry limit; management and control frames do not
// (client timers own that recovery). Frames still queued when the radio
// has moved to another channel are discarded, like a hardware queue
// flushed on retune.
//
// Send reports false if the radio is untuned, in which case nothing is
// queued.
func (r *Radio) Send(f *wifi.Frame) bool { return r.SendTagged(f, TxTag{}) }

// SendTagged is Send with a completion: unless tag is TagNone, the
// owner's TxDone gets tag back when the MAC finishes with the frame
// (delivered, retries exhausted, or flushed on a channel change),
// letting senders pace themselves against the actual airtime instead of
// guessing. An untuned radio completes the frame at once, undelivered.
func (r *Radio) SendTagged(f *wifi.Frame, tag TxTag) bool {
	ch := r.channel
	if ch == 0 {
		r.notifyDone(tag, false)
		return false
	}
	if r.txHead == len(r.txQueue) && r.txHead > 0 {
		r.txQueue = r.txQueue[:0]
		r.txHead = 0
	}
	r.txQueue = append(r.txQueue, txJob{f: f, ch: ch, tag: tag})
	r.kick()
	return true
}

// notifyDone hands a finished frame's tag to the owner.
func (r *Radio) notifyDone(tag TxTag, delivered bool) {
	if tag.Kind != TagNone {
		r.rx.TxDone(tag, delivered)
	}
}

// Orphan strips the tag from every queued (and in-flight) frame match
// selects, or from all of them when match is nil. Stripped frames still
// finish as physics — airtime is spent, deliveries draw loss — but their
// completions reach no one. A retiring driver orphans its whole queue
// and an AP a deleted client's frames, so a stale completion cannot
// land on whatever the tag names later.
func (r *Radio) Orphan(match func(TxTag) bool) {
	for i := r.txHead; i < len(r.txQueue); i++ {
		if match == nil || match(r.txQueue[i].tag) {
			r.txQueue[i].tag = TxTag{}
		}
	}
}

// popHead drops the queue head, clearing its references so the slot
// does not retain the frame, and resets the queue to the start of its
// backing array whenever it drains.
func (r *Radio) popHead() {
	r.txQueue[r.txHead] = txJob{}
	r.txHead++
	if r.txHead == len(r.txQueue) {
		r.txQueue = r.txQueue[:0]
		r.txHead = 0
	}
}

// kick starts transmitting the queue head if the MAC is idle, first
// flushing any frames queued for a channel the radio has left.
func (r *Radio) kick() {
	m := r.m
	for {
		if r.txBusy || r.txHead == len(r.txQueue) {
			return
		}
		job := &r.txQueue[r.txHead]
		if r.channel == job.ch {
			break
		}
		// Channel changed under the queued frame: flush it.
		f, tag := job.f, job.tag
		r.popHead()
		m.stats.FlushedOnRetune++
		r.notifyDone(tag, false)
		m.pool.Recycle(f)
	}
	job := &r.txQueue[r.txHead]
	r.txBusy = true
	now := m.kernel.Now()
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
		m.stats.CSDeferred++
	}
	if r.suspendedTo > start {
		start = r.suspendedTo
	}
	f := job.f
	dur := wifi.TxTimeRate(f, m.cfg.DataRateKbps)
	if job.attempt > 0 {
		f.Retry = true
	}
	// Carrier sense: every same-channel station within CSRange of the
	// transmitter (itself included) defers until this frame clears. The
	// linear scan visits every radio and samples each one; the index walks
	// the channel's CSRange neighborhood in place and lets the speed bound
	// decide what it can (within). The predicate is exact either way, and
	// the busy-until update is a max, so visiting order does not matter
	// and a station already deferred past end needs no range check.
	txPos := r.position()
	ch, end, cs := job.ch, start+dur, m.cfg.CSRange
	if m.idx == nil {
		// The reference: every radio, each sampled exactly.
		for _, x := range m.radios {
			if x.channel == ch && end > x.busyUntil && (x == r || txPos.DistSq(x.position()) <= cs*cs) {
				x.busyUntil = end
			}
		}
	} else {
		lo, hi := m.idx.boundsFor(r, txPos, cs, qbCS)
		m.idx.walk(ch, lo, hi, func(run []*Radio) {
			for _, x := range run {
				if x.channel == ch && end > x.busyUntil && (x == r ||
					x.posFixed && txPos.DistSq(x.posVal) <= cs*cs || !x.posFixed && x.within(txPos, cs, now)) {
					x.busyUntil = end
				}
			}
		})
	}
	m.stats.Transmitted++
	r.air.Tx += dur
	if m.cfg.HiddenCollisions {
		m.recordActive(activeTx{from: r, ch: ch, start: start, end: end, pos: txPos})
	}
	r.txF, r.txCh, r.txDur = f, ch, dur
	r.txDoneEv = m.kernel.FireAt(end, r, timerTxDone)
}

// txComplete is the end-of-transmission event for the in-flight frame,
// with the per-transmit state in Radio fields. This is the single
// point every transmitted frame passes through, and therefore the
// pool's recycle point: once the taps have observed the frame and
// deliver has returned (receivers copy what they keep), the frame is
// dead.
func (r *Radio) txComplete() {
	m := r.m
	f, ch, dur := r.txF, r.txCh, r.txDur
	r.txF = nil
	r.txBusy = false
	endPos := r.position()
	if m.tap != nil {
		m.tap(f, ch, m.kernel.Now())
	}
	if m.txObs != nil {
		m.txObs(f, ch, m.kernel.Now(), endPos)
	}
	delivered := m.deliver(r, endPos, f, ch, dur)
	if !delivered && r.canRetry(f, r.txQueue[r.txHead].attempt) && r.channel == ch {
		m.stats.Retries++
		r.txQueue[r.txHead].attempt++
	} else {
		tag := r.txQueue[r.txHead].tag
		r.popHead()
		r.notifyDone(tag, delivered)
		m.pool.Recycle(f)
	}
	r.kick()
}

func (r *Radio) canRetry(f *wifi.Frame, attempt int) bool {
	if f.DA.IsBroadcast() {
		return false
	}
	// Null (PSM) and PS-poll frames are MAC-acked and retried like data:
	// losing a power-save announcement would leave the AP transmitting to
	// an absent station.
	if f.Type != wifi.TypeData && f.Type != wifi.TypeNull && f.Type != wifi.TypePSPoll {
		return false
	}
	// DHCP traffic is broadcast-class on real networks (DISCOVER and
	// REQUEST go to ff:ff:…): no link-layer ACK, no ARQ. That exposure to
	// raw loss h is precisely why the client's retry timers govern join
	// latency (§2.2.1) — MAC retries would hide the paper's mechanism.
	if db, ok := f.Body.(*wifi.DataBody); ok && db.Proto == wifi.ProtoDHCP {
		return false
	}
	return attempt < r.m.cfg.DataRetryLimit
}

// AirtimeStats returns the radio's accumulated state occupancy.
func (r *Radio) AirtimeStats() Airtime { return r.air }

// deliveryCandidates returns the radios the delivery loop must visit, in
// registration order: all radios under the linear scan. When indexed, it
// keeps only the radios whose loop outcome is not yet decided by the
// predicates that are pure for the instant (position, address, the
// transmitter's identity; within decides position from the speed bound
// where it can): every radio carrying the unicast's address, and every
// other radio within Range. Only those are sorted. A unicast
// while no radio is promiscuous visits just the radios carrying its
// address — exactly those a walk would have covered — instead of walking
// the neighborhood. Either way the address's first registration, when no
// walk covers it, is appended as well, wherever (and however tuned) it
// is, so the missed-away and out-of-range stats count exactly as the
// linear scan does.
func (m *Medium) deliveryCandidates(tx *Radio, da wifi.Addr, ch int, txPos geo.Point) []*Radio {
	if m.idx == nil {
		return m.radios
	}
	now, rad := m.kernel.Now(), m.cfg.Range
	lo, hi := m.idx.boundsFor(tx, txPos, rad, qbDelivery)
	out := m.dlScratch[:0]
	unicast := !da.IsBroadcast()
	// tgt is the address's first registration, looked up once per frame.
	var tgt *Radio
	if unicast {
		if tgt = m.byAddr[da]; tgt == tx {
			tgt = nil
		}
	}
	if unicast && m.promiscuous == 0 {
		// byAddr's radio registered first, so this is registration order.
		if tgt != nil && m.idx.covers(tgt, ch, lo, hi) {
			out = append(out, tgt)
		}
		for _, x := range m.reregistered[da] {
			if x != tx && m.idx.covers(x, ch, lo, hi) {
				out = append(out, x)
			}
		}
	} else {
		m.idx.walk(ch, lo, hi, func(run []*Radio) {
			for _, x := range run {
				if x != tx && ((unicast && x.addr == da) ||
					x.posFixed && txPos.DistSq(x.posVal) <= rad*rad || !x.posFixed && x.within(txPos, rad, now)) {
					out = append(out, x)
				}
			}
		})
		slices.SortFunc(out, byReg)
	}
	if tgt != nil && !m.idx.covers(tgt, ch, lo, hi) {
		// Appending out of registration order is safe: an uncovered
		// target is off-channel or beyond the query rectangle, so the
		// delivery loop's only action on it is bumping MissedAway or
		// OutOfRange — counters, no RNG draw — and counter order is
		// invisible.
		out = append(out, tgt)
	}
	m.dlScratch = out
	return out
}

// deliver hands f to every eligible receiver; reports whether the
// addressed station (if unicast) got it. tx is nil for ghost frames
// injected from a neighboring shard; txPos is the transmitter's position
// at the instant the frame ends.
func (m *Medium) deliver(tx *Radio, txPos geo.Point, f *wifi.Frame, ch int, dur time.Duration) bool {
	now := m.kernel.Now()
	hitTarget := f.DA.IsBroadcast() // broadcast "succeeds" unconditionally
	for _, rcv := range m.deliveryCandidates(tx, f.DA, ch, txPos) {
		if rcv == tx {
			continue
		}
		addressed := !f.DA.IsBroadcast() && rcv.addr == f.DA
		if !f.DA.IsBroadcast() && !addressed && !rcv.promiscuous {
			continue
		}
		if rcv.channel != ch || rcv.Suspended(now) {
			if addressed {
				m.stats.MissedAway++
			}
			continue
		}
		d2 := txPos.DistSq(rcv.position())
		if d2 > m.cfg.Range*m.cfg.Range {
			if addressed {
				m.stats.OutOfRange++
			}
			continue
		}
		p := m.lossAt(math.Sqrt(d2))
		if extra := m.burst[ch]; extra > 0 {
			p += extra
			if p > 1 {
				p = 1
			}
		}
		if m.rng.Float64() < p {
			if addressed {
				m.stats.LostRandom++
			}
			continue
		}
		if m.cfg.HiddenCollisions && m.collidedAt(tx, txPos, rcv, ch, now, dur) {
			m.stats.Collisions++
			continue
		}
		m.stats.Delivered++
		rcv.air.Rx += dur
		if addressed {
			hitTarget = true
		}
		rcv.rx.RadioReceive(f)
	}
	return hitTarget
}

// recordActive registers a transmission for hidden-terminal checks and
// prunes entries no frame still on the air can overlap. A frame in
// flight (ending at or after now, t included) is checked at its end
// against every entry that ended after it started, so an entry that has
// already ended stays while its end is after the earliest start among
// the frames in flight.
func (m *Medium) recordActive(t activeTx) {
	now := m.kernel.Now()
	first := t.start
	for _, a := range m.active {
		if a.end >= now && a.start < first {
			first = a.start
		}
	}
	keep := m.active[:0]
	for _, a := range m.active {
		if a.end >= now || a.end > first {
			keep = append(keep, a)
		}
	}
	m.active = append(keep, t)
}

// collidedAt reports whether the reception of tx's frame at rcv (which
// occupied [now-dur, now]) overlapped another same-channel transmission
// whose sender was hidden from tx (outside carrier sense) but audible at
// rcv — the hidden-terminal corruption case. tx is nil for ghost frames.
func (m *Medium) collidedAt(tx *Radio, txPos geo.Point, rcv *Radio, ch int, now, dur time.Duration) bool {
	start := now - dur
	rcvPos := rcv.position()
	for _, a := range m.active {
		if (tx != nil && a.from == tx) || a.ch != ch {
			continue
		}
		if a.end <= start || a.start >= now {
			continue // no temporal overlap
		}
		if txPos.Dist(a.pos) <= m.cfg.CSRange {
			continue // the sender could hear it: CSMA already serialized
		}
		if rcvPos.Dist(a.pos) <= m.cfg.Range {
			return true // hidden transmitter audible at the receiver
		}
	}
	return false
}

// lossAt returns the loss probability at distance d: the base rate inside
// EdgeStart·Range, ramping linearly to 1 at Range.
func (m *Medium) lossAt(d float64) float64 {
	edge := m.cfg.EdgeStart * m.cfg.Range
	if d <= edge {
		return m.cfg.Loss
	}
	frac := (d - edge) / (m.cfg.Range - edge)
	return m.cfg.Loss + (1-m.cfg.Loss)*frac
}
