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

// SetBlackhole starts or ends a backhaul outage: while set, both
// directions silently drop everything — the dead DSLAM, the unplugged
// modem. In-flight deliveries already scheduled still arrive (they had
// left the pipe).
func (l *Link) SetBlackhole(on bool) { l.st.Blackhole = on }

// SetFaultLatency sets extra one-way delay applied to traffic sent
// while a latency-spike episode is active. Zero ends the episode.
func (l *Link) SetFaultLatency(extra time.Duration) {
	if extra < 0 {
		extra = 0
	}
	l.st.FaultLat = extra
}

// Send puts size bytes on the link toward the AP (downstream) or toward
// the server, and reports when the last byte arrives; the caller arms
// the delivery for that instant. It reports false, and the bytes are
// dropped, during a blackhole or when the shaper queue is over budget.
func (l *Link) Send(downstream bool, size int) (arrive time.Duration, ok bool) {
	size = max(size, 0)
	busyUntil, drops, delivered, bytes := &l.st.UpBusyUntil, &l.st.UpDrops, &l.st.UpDelivered, &l.st.UpBytes
	if downstream {
		busyUntil, drops, delivered, bytes = &l.st.DownBusyUntil, &l.st.DownDrops, &l.st.DownDelivered, &l.st.DownBytes
	}
	if l.st.Blackhole {
		l.st.BlackholeDrops++
		*drops++
		return 0, false
	}
	now := l.kernel.Now()
	start := max(now, *busyUntil)
	// Queue occupancy in bytes implied by the backlog ahead of us.
	backlogBytes := int(float64((start - now)) / float64(time.Second) * float64(l.cfg.RateKbps) * 1000 / 8)
	if backlogBytes > l.cfg.QueueBytes {
		*drops++
		return 0, false
	}
	txTime := time.Duration(float64(size*8) / float64(l.cfg.RateKbps) / 1000 * float64(time.Second))
	*busyUntil = start + txTime
	*delivered++
	*bytes += uint64(size)
	return start + txTime + l.cfg.Latency + l.st.FaultLat, true
}

// State is a Link's complete checkpointable state (the in-flight
// deliveries themselves are recorded by the layer that arms them).
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
