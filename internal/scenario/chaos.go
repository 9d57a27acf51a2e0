package scenario

import (
	"time"

	"spider/internal/fault"
)

// Channels returns the distinct AP channels present in the world, in
// first-seen order (the canonical burst-loss target indexing).
func (w *World) Channels() []int {
	seen := make(map[int]bool)
	var out []int
	for _, n := range w.APs {
		if ch := n.Spec.Channel; !seen[ch] {
			seen[ch] = true
			out = append(out, ch)
		}
	}
	return out
}

// Chaos is a world's attached fault-injection state.
type Chaos struct {
	Injector *fault.Injector
	Checker  *fault.Checker
}

// livenessPoll is how often the checker probes the driver for deadlock
// during fault runs. Coarse on purpose: polling events share the
// kernel, and two stalled polls in a row (10 s) is far beyond any
// legitimate switch or join latency.
const livenessPoll = 5 * time.Second

// ApplyChaos wires a fault injector and invariant checker onto a
// composed world and one client under test. Every AP, backhaul link,
// the shared medium and the client's driver become fault targets; the
// checker watches all invariant sets and (only when cfg enables any
// fault) polls the driver for deadlock.
//
// With an all-zero cfg this is pure bookkeeping — no kernel events, no
// RNG draws — so a wrapped run stays byte-identical to an unwrapped
// one.
func ApplyChaos(w *World, client *Client, cfg fault.Config) *Chaos {
	inj := fault.NewInjector(w.Kernel, cfg, w.Kernel.Seed())
	chk := fault.NewChecker(w.Kernel)
	for i, n := range w.APs {
		inj.AttachAP(n.AP, i)
		inj.AttachLink(n.Link, i)
		chk.Watch("ap", n.AP.Invariants())
	}
	inj.AttachMedium(w.Medium, w.Channels())
	if client == nil && len(w.Clients) > 0 {
		client = w.Clients[0]
	}
	if client != nil {
		client.injector = inj
		inj.AttachDriver()
		chk.AttachDriver(client.Driver, "driver")
		if cfg.Enabled() {
			chk.StartLiveness(livenessPoll)
		}
	}
	// A world attached to an obs sink (AttachObs before ApplyChaos)
	// exports the injector's per-class ledger and episode spans too.
	inj.AttachObs(w.obs)
	return &Chaos{Injector: inj, Checker: chk}
}
