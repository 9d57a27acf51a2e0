// Package fault is the deterministic fault-injection layer: it
// schedules seeded fault timelines on the simulation kernel against the
// substrates the paper's hostile city actually exhibits — APs that
// crash and reboot, beacons that go silent, DHCP servers that drop,
// NAK, or think for seconds, backhauls that blackhole or spike, channels
// that take loss bursts, and hardware resets that hang mid-switch.
//
// Determinism discipline (same as internal/sweep): every fault class
// draws from its own splitmix64-derived stream, keyed by (kernel seed,
// class name, target index) via sweep.RNG. Fault streams never share
// draws with the medium's loss RNG or any other simulation stream, so
// enabling a fault class perturbs only the faults themselves — and a
// zero-rate Config schedules no events and draws no randomness at all,
// leaving wrapped runs byte-identical to bare ones (the equivalence
// tests enforce this).
package fault

import (
	"time"

	"spider/internal/sim"
)

// Fault class names. These key the per-class RNG streams, the metrics,
// and the timeline DSL.
const (
	ClassAPCrash       = "ap-crash"
	ClassBeaconSilence = "beacon-silence"
	ClassDHCPDrop      = "dhcp-drop"
	ClassDHCPNak       = "dhcp-nak"
	ClassDHCPSlow      = "dhcp-slow"
	ClassBlackhole     = "blackhole"
	ClassLatencySpike  = "latency-spike"
	ClassBurstLoss     = "burst-loss"
	ClassResetFail     = "reset-fail"
)

// Classes lists every fault class in canonical report order.
var Classes = []string{
	ClassAPCrash, ClassBeaconSilence,
	ClassDHCPDrop, ClassDHCPNak, ClassDHCPSlow,
	ClassBlackhole, ClassLatencySpike,
	ClassBurstLoss, ClassResetFail,
}

// Config parameterizes the injector. The zero value disables every
// class: attaching a zero-config injector is pure bookkeeping — no
// kernel events, no RNG draws, no behavior change.
//
// MTBF fields are the mean exponential gap between episodes per target
// (per AP, per link, per channel); probability fields apply per
// opportunity (per DHCP message, per channel switch). Episodes on one
// target never overlap: the next gap is drawn after the previous
// episode ends.
type Config struct {
	// APCrashMTBF drives per-AP crash/reboot cycles: the AP goes dark
	// (radio off, association table and DHCP lease database wiped — the
	// volatile memory of consumer CPE), then restarts after APDowntime.
	APCrashMTBF time.Duration
	APDowntime  sim.Dist

	// BeaconSilenceMTBF drives per-AP beacon outages: the AP stays up
	// (it still answers probes and data) but stops beaconing for
	// BeaconSilenceDur — the half-dead AP the scan table must age out.
	BeaconSilenceMTBF time.Duration
	BeaconSilenceDur  sim.Dist

	// DHCPDrop / DHCPNak / DHCPSlowProb misbehave the DHCP servers, per
	// incoming message: silently drop it, NAK it (a REQUEST; a DISCOVER
	// under a NAK draw is dropped — NAK has no meaning for it), or stall
	// the response by an extra DHCPSlowThink sample.
	DHCPDrop      float64
	DHCPNak       float64
	DHCPSlowProb  float64
	DHCPSlowThink sim.Dist

	// BlackholeMTBF drives per-link backhaul outages: the wired pipe
	// silently eats everything in both directions for BlackholeDur.
	BlackholeMTBF time.Duration
	BlackholeDur  sim.Dist

	// LatencySpikeMTBF drives per-link latency episodes: one-way delay
	// grows by a LatencySpikeExtra sample for LatencySpikeDur.
	LatencySpikeMTBF  time.Duration
	LatencySpikeExtra sim.Dist
	LatencySpikeDur   sim.Dist

	// BurstMTBF drives per-channel loss bursts: the channel's per-frame
	// loss probability gains BurstExtraLoss for BurstDur — the microwave
	// oven, the passing truck, the interferer the model's h cannot see.
	BurstMTBF      time.Duration
	BurstExtraLoss float64
	BurstDur       sim.Dist

	// ResetFailProb makes a channel switch's hardware reset hang for an
	// extra ResetStuck sample with this probability — the flaky chipset
	// whose reset sometimes takes 50× the Table 1 figure.
	ResetFailProb float64
	ResetStuck    sim.Dist
}

// Enabled reports whether any fault class can fire. A disabled config
// makes Injector attachment a no-op (no events, no draws).
func (c Config) Enabled() bool {
	return c.APCrashMTBF > 0 || c.BeaconSilenceMTBF > 0 ||
		c.DHCPDrop > 0 || c.DHCPNak > 0 || c.DHCPSlowProb > 0 ||
		c.BlackholeMTBF > 0 || c.LatencySpikeMTBF > 0 ||
		c.BurstMTBF > 0 || c.ResetFailProb > 0
}

// Aggressive returns the hostile-city profile: every class fires
// several times inside a 4-minute drive past a few dozen APs, so a
// short chaos run exercises every recovery path.
func Aggressive() Config {
	return Config{
		APCrashMTBF: 3 * time.Minute,
		APDowntime:  sim.Uniform{Min: 5 * time.Second, Max: 20 * time.Second},

		BeaconSilenceMTBF: 3 * time.Minute,
		BeaconSilenceDur:  sim.Uniform{Min: 3 * time.Second, Max: 10 * time.Second},

		DHCPDrop:      0.20,
		DHCPNak:       0.12,
		DHCPSlowProb:  0.12,
		DHCPSlowThink: sim.Uniform{Min: time.Second, Max: 4 * time.Second},

		BlackholeMTBF: 4 * time.Minute,
		BlackholeDur:  sim.Uniform{Min: 3 * time.Second, Max: 12 * time.Second},

		LatencySpikeMTBF:  4 * time.Minute,
		LatencySpikeExtra: sim.Uniform{Min: 150 * time.Millisecond, Max: 800 * time.Millisecond},
		LatencySpikeDur:   sim.Uniform{Min: 5 * time.Second, Max: 15 * time.Second},

		BurstMTBF:      time.Minute,
		BurstExtraLoss: 0.35,
		BurstDur:       sim.Uniform{Min: 2 * time.Second, Max: 8 * time.Second},

		ResetFailProb: 0.08,
		ResetStuck:    sim.Uniform{Min: 50 * time.Millisecond, Max: 400 * time.Millisecond},
	}
}

// Mild returns a background-noise profile: occasional faults at rates a
// healthy deployment might actually see.
func Mild() Config {
	return Config{
		APCrashMTBF: 15 * time.Minute,
		APDowntime:  sim.Uniform{Min: 5 * time.Second, Max: 15 * time.Second},

		BeaconSilenceMTBF: 12 * time.Minute,
		BeaconSilenceDur:  sim.Uniform{Min: 2 * time.Second, Max: 6 * time.Second},

		DHCPDrop:      0.05,
		DHCPNak:       0.03,
		DHCPSlowProb:  0.03,
		DHCPSlowThink: sim.Uniform{Min: 500 * time.Millisecond, Max: 2 * time.Second},

		BlackholeMTBF: 20 * time.Minute,
		BlackholeDur:  sim.Uniform{Min: 2 * time.Second, Max: 8 * time.Second},

		LatencySpikeMTBF:  15 * time.Minute,
		LatencySpikeExtra: sim.Uniform{Min: 100 * time.Millisecond, Max: 400 * time.Millisecond},
		LatencySpikeDur:   sim.Uniform{Min: 3 * time.Second, Max: 10 * time.Second},

		BurstMTBF:      5 * time.Minute,
		BurstExtraLoss: 0.20,
		BurstDur:       sim.Uniform{Min: 1 * time.Second, Max: 5 * time.Second},

		ResetFailProb: 0.01,
		ResetStuck:    sim.Uniform{Min: 20 * time.Millisecond, Max: 150 * time.Millisecond},
	}
}

// Profile resolves a profile name ("off"/"", "mild", "aggressive") for
// the -chaos flags and Options plumbing.
func Profile(name string) (Config, bool) {
	switch name {
	case "", "off", "none":
		return Config{}, true
	case "mild":
		return Mild(), true
	case "aggressive":
		return Aggressive(), true
	}
	return Config{}, false
}
