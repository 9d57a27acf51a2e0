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
	// ResetBase is the hardware-reset component of a channel switch
	// (Table 1: ≈4.94 ms on the Atheros chipset).
	ResetBase time.Duration
	// ScanInterval is the probe-burst period while dwelling on a channel.
	ScanInterval time.Duration
	// InactivityTimeout drops an interface whose AP has not been heard
	// for this long (out of range).
	InactivityTimeout time.Duration
	// HoldDown is the per-AP back-off after a failed join attempt. The
	// stock value is the DHCP client's 60 s idle; Spider retries sooner.
	// From the second consecutive failure the hold grows exponentially
	// (±20% jitter) up to BackoffCap — a crashed AP should not be
	// hammered every HoldDown forever.
	HoldDown time.Duration
	// BackoffCap bounds the exponential growth of the per-AP hold-down.
	// Zero defaults to 8× HoldDown.
	BackoffCap time.Duration
	// MaxConsecFails is the per-AP consecutive-failure budget: once an AP
	// fails this many joins in a row it is quarantined (blacklisted) for
	// Quarantine instead of merely held down. Zero takes the default (5);
	// negative disables quarantine.
	MaxConsecFails int
	// Quarantine is the base blacklist duration once the failure budget
	// is exhausted. It doubles with each successive quarantine of the
	// same AP (capped at 4×) and carries ±25% jitter so a fleet of
	// failed APs does not return in lockstep. Zero defaults to 8×
	// HoldDown when MaxConsecFails is set.
	Quarantine time.Duration
	// GlobalIdleOnDHCPFail reproduces the stock DHCP client's behaviour
	// of going idle after a failed attempt window ("it is idle for 60
	// seconds if it fails") — no joins to ANY AP until it expires.
	// Spider leaves it zero and relies on the per-AP HoldDown.
	GlobalIdleOnDHCPFail time.Duration
	// BackgroundScanEvery/BackgroundScanDwell: while a multi-channel
	// single-AP driver dwells on its associated AP's channel, it must
	// still peek at the other scheduled channels periodically or it has
	// nowhere to go when the link dies. Every is the period, Dwell the
	// off-channel excursion length. Zero disables.
	BackgroundScanEvery time.Duration
	BackgroundScanDwell time.Duration
	// APCentric switches the driver to FatVAP-style scheduling: even APs
	// on the SAME channel are served one at a time in APSliceDwell slices,
	// with PSM claimed at all the others. Spider's contribution is
	// precisely NOT doing this ("in contrast to previous work that slices
	// time across individual APs, Spider schedules a physical Wi-Fi card
	// among 802.11 channels"); the flag exists so the design choice can
	// be measured (ablation-apcentric).
	APCentric    bool
	APSliceDwell time.Duration
	// UseLeaseCache enables REQUEST-first rejoins from cached leases.
	UseLeaseCache bool
	// UseHistory enables the join-history selection heuristic; without it
	// APs are picked by recency (stock behaviour).
	UseHistory bool
	// TxQueueFrames bounds each per-channel transmit queue.
	TxQueueFrames int
	// StartAt defers the driver's admission to the given absolute virtual
	// time: until then the radio stays untuned (channel 0 hears nothing)
	// and no scheduler, scan, or inactivity timer runs. Zero — or any
	// time already past at construction — starts the driver immediately,
	// byte-for-byte identical to a config without the field. Staggered
	// admission ramps use it to spread a metro's join storm.
	StartAt time.Duration
}

// SpiderDefaults returns Spider's tuned policy for the given mode and
// schedule: reduced timers, lease caching, history-driven selection.
func SpiderDefaults(mode Mode, schedule []ChannelSlice) Config {
	cfg := Config{
		Mode:              mode,
		Schedule:          schedule,
		MaxInterfaces:     7,
		Join:              mac.ReducedJoinConfig(),
		DHCP:              dhcp.ReducedClientConfig(200 * time.Millisecond),
		ResetBase:         4940 * time.Microsecond,
		ScanInterval:      250 * time.Millisecond,
		InactivityTimeout: 3 * time.Second,
		HoldDown:          4 * time.Second,
		UseLeaseCache:     true,
		UseHistory:        true,
		TxQueueFrames:     128,
	}
	// Spider stretches the stock 3 s DHCP window slightly: with the
	// backed-off retry ladder, the extra second is what lets a
	// slow-but-valuable AP answer the final patient request.
	cfg.DHCP.AttemptWindow = 4500 * time.Millisecond
	if mode == MultiChannelSingleAP {
		cfg.BackgroundScanEvery = 1500 * time.Millisecond
		cfg.BackgroundScanDwell = 300 * time.Millisecond
	}
	return cfg
}

// StockDefaults returns the unmodified-driver baseline policy: default
// timers, no cache, no history, sticky link-death detection, and the
// stock DHCP client's 60 s global idle after a failed attempt.
func StockDefaults(schedule []ChannelSlice) Config {
	cfg := SpiderDefaults(StockWiFi, schedule)
	cfg.Join = mac.DefaultJoinConfig()
	cfg.DHCP = dhcp.DefaultClientConfig()
	cfg.ScanInterval = 500 * time.Millisecond
	cfg.InactivityTimeout = 8 * time.Second
	cfg.HoldDown = 20 * time.Second
	cfg.GlobalIdleOnDHCPFail = 60 * time.Second
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
	d := SpiderDefaults(c.Mode, c.Schedule)
	if len(c.Schedule) == 0 {
		c.Schedule = EqualSchedule(200*time.Millisecond, 1, 6, 11)
	}
	if c.MaxInterfaces <= 0 {
		c.MaxInterfaces = d.MaxInterfaces
	}
	if !c.Mode.MultiAP() {
		c.MaxInterfaces = 1
	}
	if c.ResetBase <= 0 {
		c.ResetBase = d.ResetBase
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = d.ScanInterval
	}
	if c.InactivityTimeout <= 0 {
		c.InactivityTimeout = d.InactivityTimeout
	}
	if c.HoldDown <= 0 {
		c.HoldDown = d.HoldDown
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 8 * c.HoldDown
	}
	if c.MaxConsecFails == 0 {
		c.MaxConsecFails = 5
	}
	if c.Quarantine <= 0 {
		c.Quarantine = 8 * c.HoldDown
	}
	if c.TxQueueFrames <= 0 {
		c.TxQueueFrames = d.TxQueueFrames
	}
	if c.APCentric && c.APSliceDwell <= 0 {
		c.APSliceDwell = 100 * time.Millisecond
	}
	return c
}
