// Package backhaul models the wired side of an access point: a
// rate-shaped, fixed-latency pipe between the AP and the content servers.
//
// The paper's Fig 9 micro-benchmark shapes each AP's backhaul with a
// traffic shaper to study the aggregate throughput of multiple APs; the
// broader evaluation rests on the observation that "in urban regions the
// backhaul bandwidth is rarely greater than the wireless bandwidth",
// which is why aggregating several APs on one channel pays off.
package backhaul

import (
	"time"

	"spider/internal/sim"
)

// Config describes one AP's wired link.
type Config struct {
	// RateKbps is the shaped capacity in each direction.
	RateKbps int
	// Latency is the one-way propagation+ISP delay.
	Latency time.Duration
	// QueueBytes bounds the shaper queue; excess arrivals drop.
	QueueBytes int
}

// DefaultConfig is a typical urban residential backhaul: 2 Mbps,
// 20 ms one-way, 64 KB of buffer.
func DefaultConfig() Config {
	return Config{RateKbps: 2000, Latency: 20 * time.Millisecond, QueueBytes: 64 * 1024}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RateKbps <= 0 {
		c.RateKbps = d.RateKbps
	}
	if c.Latency <= 0 {
		c.Latency = d.Latency
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = d.QueueBytes
	}
	return c
}

// Link is a bidirectional shaped pipe. Each direction serializes
// independently, like full-duplex DSL.
type Link struct {
	kernel *sim.Kernel
	cfg    Config
	st     State
}

// NewLink creates a link on the kernel.
func NewLink(k *sim.Kernel, cfg Config) *Link {
	return &Link{kernel: k, cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (l *Link) Config() Config { return l.cfg }

// SetRateKbps adjusts the shaped capacity, e.g. for Fig 9's sweep.
func (l *Link) SetRateKbps(kbps int) {
	if kbps > 0 {
		l.cfg.RateKbps = kbps
	}
}

// SetBlackhole starts or ends a backhaul outage: while set, both
// directions silently drop everything — the dead DSLAM, the unplugged
// modem. In-flight deliveries already scheduled still arrive (they had
// left the pipe).
func (l *Link) SetBlackhole(on bool) { l.st.Blackhole = on }

// Blackholed reports whether an outage is active.
func (l *Link) Blackholed() bool { return l.st.Blackhole }

// FaultLatency returns the active latency-spike extra delay.
func (l *Link) FaultLatency() time.Duration { return l.st.FaultLat }

// SetFaultLatency sets extra one-way delay applied to traffic sent
// while a latency-spike episode is active. Zero ends the episode.
func (l *Link) SetFaultLatency(extra time.Duration) {
	if extra < 0 {
		extra = 0
	}
	l.st.FaultLat = extra
}

// Down sends size bytes from the server side toward the AP, invoking fn
// when the last byte arrives. It reports false (and drops) if the shaper
// queue is over budget.
func (l *Link) Down(size int, fn func()) bool {
	_, ok := l.DownEv(size, sim.Func(fn), 0)
	return ok
}

// Up sends size bytes from the AP toward the server.
func (l *Link) Up(size int, fn func()) bool {
	_, ok := l.UpEv(size, sim.Func(fn), 0)
	return ok
}

// DownEv is Down firing h.Fire(kind) on arrival and returning the
// delivery event handle, so callers that checkpoint in-flight traffic
// can record its (at, seq) identity. A caller that owns the delivery
// passes itself as h and builds no closure per transfer.
func (l *Link) DownEv(size int, h sim.Handler, kind uint8) (sim.Event, bool) {
	ev, ok := l.send(&l.st.DownBusyUntil, size, h, kind)
	if ok {
		l.st.DownDelivered++
		l.st.DownBytes += uint64(size)
	} else {
		l.st.DownDrops++
	}
	return ev, ok
}

// UpEv is DownEv toward the server.
func (l *Link) UpEv(size int, h sim.Handler, kind uint8) (sim.Event, bool) {
	ev, ok := l.send(&l.st.UpBusyUntil, size, h, kind)
	if ok {
		l.st.UpDelivered++
		l.st.UpBytes += uint64(size)
	} else {
		l.st.UpDrops++
	}
	return ev, ok
}

func (l *Link) send(busyUntil *time.Duration, size int, h sim.Handler, kind uint8) (sim.Event, bool) {
	if l.st.Blackhole {
		l.st.BlackholeDrops++
		return sim.Event{}, false
	}
	if size < 0 {
		size = 0
	}
	now := l.kernel.Now()
	start := now
	if *busyUntil > start {
		start = *busyUntil
	}
	// Queue occupancy in bytes implied by the backlog ahead of us.
	backlogBytes := int(float64((start - now)) / float64(time.Second) * float64(l.cfg.RateKbps) * 1000 / 8)
	if backlogBytes > l.cfg.QueueBytes {
		return sim.Event{}, false
	}
	txTime := time.Duration(float64(size*8) / float64(l.cfg.RateKbps) / 1000 * float64(time.Second))
	*busyUntil = start + txTime
	return l.kernel.FireAt(start+txTime+l.cfg.Latency+l.st.FaultLat, h, kind), true
}

// State is a Link's complete checkpointable state (the in-flight
// deliveries themselves are recorded by the layer that owns their
// callbacks).
type State struct {
	// DownBusyUntil/UpBusyUntil are when each direction's shaper frees.
	DownBusyUntil, UpBusyUntil time.Duration
	// Blackhole silently eats traffic in both directions while set; the
	// fault injector flips it for backhaul-outage episodes.
	Blackhole bool
	// FaultLat is extra one-way delay during a latency-spike episode.
	FaultLat time.Duration
	// DownDrops/UpDrops count messages discarded due to a full queue.
	DownDrops, UpDrops uint64
	// BlackholeDrops counts messages eaten by an injected outage (also
	// included in the per-direction drop counters).
	BlackholeDrops uint64
	// DownDelivered/UpDelivered count messages that made it through.
	DownDelivered, UpDelivered uint64
	// DownBytes/UpBytes count payload bytes carried.
	DownBytes, UpBytes uint64
}

// ExportState captures the link for a checkpoint.
func (l *Link) ExportState() State { return l.st }

// RestoreState rewinds the link to a checkpointed state.
func (l *Link) RestoreState(st State) { l.st = st }

// QueueDelay reports how long a byte entering the given direction now
// would wait before transmission begins.
func (l *Link) QueueDelay(downstream bool) time.Duration {
	busyUntil := l.st.UpBusyUntil
	if downstream {
		busyUntil = l.st.DownBusyUntil
	}
	d := busyUntil - l.kernel.Now()
	if d < 0 {
		return 0
	}
	return d
}
