// Package core implements Spider, the paper's contribution: a virtualized
// Wi-Fi driver for mobile clients that schedules one physical radio among
// 802.11 channels (not among APs), maintains one packet queue per channel,
// holds concurrent associations with every joined AP on the current
// channel, and mitigates join overhead with opportunistic scanning, a
// join-history AP selection heuristic, and DHCP lease caching.
//
// The same driver also implements the paper's comparison configurations
// (single/multi channel × single/multi AP, Table 2) and a stock-Wi-Fi
// baseline, so every evaluation row runs on one code path.
package core

import (
	"time"

	"spider/internal/dhcp"
	"spider/internal/mac"
)

// Mode selects the driver's scheduling/association policy.
type Mode int

// Driver modes. The four Spider configurations of §4.1 plus the
// unmodified-driver baseline.
const (
	// SingleChannelSingleAP mimics off-the-shelf Wi-Fi pinned to one
	// channel (configuration 1).
	SingleChannelSingleAP Mode = iota
	// SingleChannelMultiAP stays on one channel and joins as many APs
	// there as possible (configuration 2 — Spider's best for throughput).
	SingleChannelMultiAP
	// MultiChannelMultiAP rotates a static schedule over the configured
	// channels, joining APs everywhere (configuration 3 — best for
	// connectivity).
	MultiChannelMultiAP
	// MultiChannelSingleAP rotates while unassociated but dwells on the
	// associated AP's channel once joined (configuration 4).
	MultiChannelSingleAP
	// StockWiFi is the MadWiFi-like baseline: single association, default
	// timers, no lease cache, no join history.
	StockWiFi
)

func (m Mode) String() string {
	switch m {
	case SingleChannelSingleAP:
		return "single-channel/single-AP"
	case SingleChannelMultiAP:
		return "single-channel/multi-AP"
	case MultiChannelMultiAP:
		return "multi-channel/multi-AP"
	case MultiChannelSingleAP:
		return "multi-channel/single-AP"
	case StockWiFi:
		return "stock"
	}
	return "unknown-mode"
}

// MultiAP reports whether the mode holds concurrent associations.
func (m Mode) MultiAP() bool {
	return m == SingleChannelMultiAP || m == MultiChannelMultiAP
}

// paperInterfaces is the paper's bound on concurrent virtual
// interfaces, the default MaxInterfaces. The driver's per-interface
// scratch starts on arrays this long.
const paperInterfaces = 7

// ChannelSlice is one entry of the driver's static schedule.
type ChannelSlice struct {
	Channel int
	Dwell   time.Duration
}

// Config parameterizes the driver.
type Config struct {
	Mode Mode
	// Schedule lists the channels and dwell times of one scheduling
	// period. A single entry means no switching. The paper's static
	// multi-channel schedule is 200 ms on each of channels 1, 6, 11.
	Schedule []ChannelSlice
	// MaxInterfaces bounds concurrent virtual interfaces (paper: 7).
	MaxInterfaces int
	// Join is the link-layer timeout policy.
	Join mac.JoinConfig
	// DHCP is the client timeout policy.
	DHCP dhcp.ClientConfig
	// APCentric switches the driver to FatVAP-style scheduling: even APs
	// on the SAME channel are served one at a time in 100 ms slices,
	// with PSM claimed at all the others. Spider's contribution is
	// precisely NOT doing this ("in contrast to previous work that slices
	// time across individual APs, Spider schedules a physical Wi-Fi card
	// among 802.11 channels"); the flag exists so the design choice can
	// be measured (ablation-apcentric).
	APCentric bool
	// UseLeaseCache enables REQUEST-first rejoins from cached leases.
	UseLeaseCache bool
	// UseHistory enables the join-history selection heuristic; without it
	// APs are picked by recency (stock behaviour).
	UseHistory bool
	// StartAt defers the driver's admission to the given absolute virtual
	// time: until then the radio stays untuned (channel 0 hears nothing)
	// and no scheduler, scan, or inactivity timer runs. Zero — or any
	// time already past at construction — starts the driver immediately,
	// byte-for-byte identical to a config without the field. Staggered
	// admission ramps use it to spread a metro's join storm.
	StartAt time.Duration
}

// SpiderDefaults returns Spider's tuned policy for the given mode and
// schedule: reduced link and DHCP timeouts, lease caching,
// history-driven selection. The driver's own timers follow from the
// mode (see policyFor).
func SpiderDefaults(mode Mode, schedule []ChannelSlice) Config {
	cfg := Config{
		Mode:          mode,
		Schedule:      schedule,
		MaxInterfaces: paperInterfaces,
		Join:          mac.ReducedJoinConfig(),
		DHCP:          dhcp.ReducedClientConfig(200 * time.Millisecond),
		UseLeaseCache: true,
		UseHistory:    true,
	}
	// Spider stretches the stock 3 s DHCP window slightly: with the
	// backed-off retry ladder, the extra second is what lets a
	// slow-but-valuable AP answer the final patient request.
	cfg.DHCP.AttemptWindow = 4500 * time.Millisecond
	return cfg
}

// StockDefaults returns the unmodified-driver baseline policy: default
// link and DHCP timeouts, no cache, no history. Its mode, StockWiFi,
// gives it the stock driver's timers (see policyFor).
func StockDefaults(schedule []ChannelSlice) Config {
	cfg := SpiderDefaults(StockWiFi, schedule)
	cfg.Join = mac.DefaultJoinConfig()
	cfg.DHCP = dhcp.DefaultClientConfig()
	cfg.UseLeaseCache = false
	cfg.UseHistory = false
	return cfg
}

// EqualSchedule builds an equal static schedule: dwell on each channel.
func EqualSchedule(dwell time.Duration, channels ...int) []ChannelSlice {
	out := make([]ChannelSlice, 0, len(channels))
	for _, ch := range channels {
		out = append(out, ChannelSlice{Channel: ch, Dwell: dwell})
	}
	return out
}

func (c Config) withDefaults() Config {
	if len(c.Schedule) == 0 {
		c.Schedule = EqualSchedule(200*time.Millisecond, 1, 6, 11)
	}
	if c.MaxInterfaces <= 0 {
		c.MaxInterfaces = paperInterfaces
	}
	if !c.Mode.MultiAP() {
		c.MaxInterfaces = 1
	}
	return c
}

// policy holds the driver's timers and queue bounds. No experiment
// varies them: the driver takes them from its mode (policyFor).
type policy struct {
	// resetBase is the hardware-reset component of a channel switch
	// (Table 1: ≈4.94 ms on the Atheros chipset).
	resetBase time.Duration
	// scanInterval is the probe-burst period while dwelling on a channel.
	scanInterval time.Duration
	// inactivity drops an interface whose AP has not been heard for this
	// long (out of range).
	inactivity time.Duration
	// holdDown is the per-AP back-off after a failed join attempt: 20 s
	// for the stock driver, 4 s for Spider, which retries sooner.
	// From the second consecutive failure the hold grows exponentially
	// (±20% jitter) up to backoffCap — a crashed AP should not be
	// hammered every holdDown forever.
	holdDown   time.Duration
	backoffCap time.Duration
	// maxConsecFails is the per-AP consecutive-failure budget: once an AP
	// fails this many joins in a row it is quarantined (blacklisted) for
	// quarantine instead of merely held down. The quarantine doubles with
	// each successive quarantine of the same AP (capped at 4×) and
	// carries ±25% jitter so a fleet of failed APs does not return in
	// lockstep.
	maxConsecFails int
	quarantine     time.Duration
	// globalIdle reproduces the stock DHCP client's behaviour of going
	// idle after a failed attempt window ("it is idle for 60 seconds if
	// it fails") — no joins to ANY AP until it expires. Spider leaves it
	// zero and relies on the per-AP hold-down.
	globalIdle time.Duration
	// bgScanEvery/bgScanDwell: while a multi-channel single-AP driver
	// dwells on its associated AP's channel, it must still peek at the
	// other scheduled channels periodically or it has nowhere to go when
	// the link dies. Every is the period, dwell the off-channel excursion
	// length. Zero disables.
	bgScanEvery time.Duration
	bgScanDwell time.Duration
	// apSliceDwell is the per-AP slice of APCentric scheduling.
	apSliceDwell time.Duration
	// txQueueFrames bounds each per-channel transmit queue.
	txQueueFrames int
}

// policyFor returns the timers a mode runs with: the stock driver's
// for StockWiFi, Spider's reduced ones for the four Spider modes, and
// the background scan only for MultiChannelSingleAP, the one mode that
// dwells on one channel while its schedule names others. A driver
// points at modePolicy's copy, shared by every driver of its mode.
func policyFor(m Mode) policy {
	p := policy{
		resetBase:      4940 * time.Microsecond,
		scanInterval:   250 * time.Millisecond,
		inactivity:     3 * time.Second,
		holdDown:       4 * time.Second,
		maxConsecFails: 5,
		apSliceDwell:   100 * time.Millisecond,
		txQueueFrames:  128,
	}
	switch m {
	case StockWiFi:
		p.scanInterval = 500 * time.Millisecond
		p.inactivity = 8 * time.Second
		p.holdDown = 20 * time.Second
		p.globalIdle = 60 * time.Second
	case MultiChannelSingleAP:
		p.bgScanEvery = 1500 * time.Millisecond
		p.bgScanDwell = 300 * time.Millisecond
	}
	p.backoffCap = 8 * p.holdDown
	p.quarantine = 8 * p.holdDown
	return p
}

// modePolicies holds policyFor of every mode.
var modePolicies = func() (ps [StockWiFi + 1]policy) {
	for m := range ps {
		ps[m] = policyFor(Mode(m))
	}
	return ps
}()

// modePolicy returns the shared, read-only policyFor(m). A mode outside
// the table gets the Spider timers, as policyFor gives it.
func modePolicy(m Mode) *policy {
	if m < 0 || int(m) >= len(modePolicies) {
		return &modePolicies[SingleChannelSingleAP]
	}
	return &modePolicies[m]
}
