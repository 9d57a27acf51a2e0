package core

// Tests for the hostile-city hardening: retry budgets, blacklist
// quarantine, timer hygiene on teardown, and lease revalidation.

import (
	"testing"
	"time"

	"spider/internal/dhcp"
	"spider/internal/geo"
)

// TestRetryBudgetBlacklistsFailingAP drives joins against an AP whose
// DHCP server drops everything: consecutive failures must escalate the
// hold-down and, at the budget, quarantine the AP (with the eviction
// counted once the quarantine expires).
func TestRetryBudgetBlacklistsFailingAP(t *testing.T) {
	w := newWorld(11, 0)
	ap := w.addAP(1, "open", 6, geo.Point{X: 30})
	ap.DHCPServer().SetChaos(w.k.RNG("test.chaos"), dhcp.Chaos{Drop: 1}, nil)
	cfg := singleChannelCfg(SingleChannelMultiAP, 6)
	pol := policyFor(cfg.Mode)
	pol.holdDown = 500 * time.Millisecond
	pol.backoffCap = 2 * time.Second
	pol.maxConsecFails = 3
	pol.quarantine = 3 * time.Second
	d := w.addDriverPolicy(cfg, pol, geo.Static{P: geo.Point{}})
	w.k.Run(2 * time.Minute)

	st := d.Stats()
	if st.JoinSuccesses != 0 {
		t.Fatalf("joins should all fail under Drop=1, got %d successes", st.JoinSuccesses)
	}
	if st.DHCPFailures < 3 {
		t.Fatalf("expected at least a budget of DHCP failures, got %d", st.DHCPFailures)
	}
	if st.Blacklisted == 0 {
		t.Fatalf("AP was never blacklisted (stats %+v)", st)
	}
	if st.BlacklistEvictions == 0 {
		t.Fatalf("expired quarantine was never evicted (stats %+v)", st)
	}
	rec := d.table.get(ap.Addr())
	if rec == nil || rec.Quarantines == 0 {
		t.Fatalf("AP record did not accumulate quarantines: %+v", rec)
	}
	if d.Invariants().Total() != 0 {
		t.Fatalf("invariants violated: %s", d.Invariants())
	}
}

// TestBackoffEscalates checks that consecutive failures push HoldUntil
// beyond the base hold-down, and that the very first failure keeps the
// exact configured value (the zero-jitter baseline the equivalence
// suite depends on).
func TestBackoffEscalates(t *testing.T) {
	w := newWorld(12, 0)
	ap := w.addAP(1, "open", 6, geo.Point{X: 30})
	d := w.addDriver(singleChannelCfg(SingleChannelMultiAP, 6), geo.Static{P: geo.Point{}})
	rec := d.table.observe(ap.Addr(), "open", 6, 0, false)

	d.applyFailBackoff(rec)
	if got := rec.HoldUntil; got != d.pol.holdDown {
		t.Fatalf("first failure HoldUntil = %v, want exactly %v", got, d.pol.holdDown)
	}
	d.applyFailBackoff(rec)
	second := rec.HoldUntil
	if second <= d.pol.holdDown {
		t.Fatalf("second failure did not escalate: %v", second)
	}
	d.applyFailBackoff(rec)
	if rec.HoldUntil <= second {
		t.Fatalf("third failure did not escalate past %v: %v", second, rec.HoldUntil)
	}
	if rec.ConsecFails != 3 {
		t.Fatalf("ConsecFails = %d, want 3", rec.ConsecFails)
	}
}

// TestTeardownLeavesNoTimers crashes the AP at awkward moments — mid
// link handshake and mid DHCP — and verifies that every teardown found
// all interface timers cancelled (the invariant set, where a leak is
// recorded as core.teardown.timer-leak, stays clean) and that dead
// interfaces took no callbacks.
func TestTeardownLeavesNoTimers(t *testing.T) {
	w := newWorld(13, 0)
	ap := w.addAP(1, "open", 6, geo.Point{X: 30})
	cfg := singleChannelCfg(SingleChannelMultiAP, 6)
	pol := policyFor(cfg.Mode)
	pol.holdDown = 500 * time.Millisecond
	d := w.addDriverPolicy(cfg, pol, geo.Static{P: geo.Point{}})
	// Each cycle: a 4 s outage (past the 3 s inactivity timeout, so a
	// connected iface tears down), then a short crash ~350 ms after the
	// restart — right inside the rejoin's DHCP exchange (beacon ≤100 ms,
	// offer 150 ms, ack 50 ms in this fixture) — so teardowns hit both
	// connected and mid-handshake interfaces.
	crash := func(at time.Duration) {
		w.k.At(at, func() {
			if !ap.Down() {
				ap.Crash()
			}
		})
	}
	restart := func(at time.Duration) {
		w.k.At(at, func() {
			if ap.Down() {
				ap.Restart()
			}
		})
	}
	for base := 1 * time.Second; base < 80*time.Second; base += 8 * time.Second {
		crash(base)
		restart(base + 4*time.Second)
		crash(base + 4*time.Second + 350*time.Millisecond)
		restart(base + 6*time.Second)
	}
	w.k.Run(100 * time.Second)
	if n := d.Invariants().Count("core.teardown.timer-leak"); n != 0 {
		t.Fatalf("%d teardowns leaked timers", n)
	}
	if d.Invariants().Total() != 0 {
		t.Fatalf("invariants violated: %s", d.Invariants())
	}
	if len(w.disconnected) == 0 && d.Stats().JoinSuccesses > 0 {
		t.Fatalf("crashes never disconnected a connected iface (stats %+v)", d.Stats())
	}
}

// TestLeaseRevalidationOnReassociation joins, loses the AP to a crash
// long enough for the inactivity teardown, then rejoins after the
// restart: the cached lease must be revalidated (fast path) and
// counted.
func TestLeaseRevalidationOnReassociation(t *testing.T) {
	w := newWorld(14, 0)
	ap := w.addAP(1, "open", 6, geo.Point{X: 30})
	cfg := singleChannelCfg(SingleChannelMultiAP, 6)
	pol := policyFor(cfg.Mode)
	pol.holdDown = time.Second
	d := w.addDriverPolicy(cfg, pol, geo.Static{P: geo.Point{}})
	w.k.At(20*time.Second, ap.Crash)
	w.k.At(40*time.Second, ap.Restart)
	w.k.Run(90 * time.Second)
	st := d.Stats()
	if st.JoinSuccesses < 2 {
		t.Fatalf("expected a join before and after the outage, got %d (stats %+v)", st.JoinSuccesses, st)
	}
	if st.LeaseRevalidations == 0 {
		t.Fatalf("re-association did not revalidate the cached lease (stats %+v)", st)
	}
	if d.Invariants().Total() != 0 {
		t.Fatalf("invariants violated: %s", d.Invariants())
	}
}

// TestResetFaultHookExtendsSwitch verifies the hardware-reset delay the
// host reports (Host.ResetDelay) is applied and counted on channel
// switches.
func TestResetFaultHookExtendsSwitch(t *testing.T) {
	w := newWorld(15, 0)
	w.resetDelay = 50 * time.Millisecond
	cfg := SpiderDefaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 1, 6))
	d := w.addDriver(cfg, geo.Static{P: geo.Point{}})
	w.k.Run(5 * time.Second)
	st := d.Stats()
	if st.Switches == 0 {
		t.Fatal("no channel switches happened")
	}
	if st.ResetFaults != st.Switches {
		t.Fatalf("every switch should hit the always-on reset fault: %d faults, %d switches", st.ResetFaults, st.Switches)
	}
}
