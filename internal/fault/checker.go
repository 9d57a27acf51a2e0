package fault

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spider/internal/core"
	"spider/internal/metrics"
	"spider/internal/sim"
)

// Checker watches a chaos run for the failures fault injection must
// never cause: invariant violations recorded anywhere in the stack
// (timers leaked past interface teardown among them), and a deadlocked
// driver.
// Verify() at end of run returns the first-class error for the CLI /
// tests to fail on.
type Checker struct {
	kernel *sim.Kernel
	driver *core.Driver

	watched    []watchedSet
	violations []string

	// Deadlock detection state: a driver counts as stalled only when
	// two consecutive polls see the same non-empty reason with no
	// channel switch in between (transient mid-switch polls are fine).
	lastReason   string
	lastSwitches uint64
	stallStreak  int
}

type watchedSet struct {
	name string
	inv  *metrics.InvariantSet
}

// NewChecker creates a checker for the run.
func NewChecker(k *sim.Kernel) *Checker { return &Checker{kernel: k} }

// Watch registers a named invariant set to be folded into Verify.
func (c *Checker) Watch(name string, inv *metrics.InvariantSet) {
	if inv == nil {
		return
	}
	c.watched = append(c.watched, watchedSet{name, inv})
}

// AttachDriver registers the driver for deadlock polling and watches
// its invariant set, where a timer leaked past interface teardown is
// recorded (core.teardown.timer-leak).
func (c *Checker) AttachDriver(d *core.Driver, name string) {
	c.driver = d
	c.Watch(name, d.Invariants())
}

// StartLiveness begins periodic deadlock polling. Only chaos runs call
// this: the polling events themselves perturb the kernel's schedule, so
// zero-fault runs must leave it off to stay byte-identical.
func (c *Checker) StartLiveness(every time.Duration) {
	if every <= 0 || c.driver == nil {
		return
	}
	var poll func()
	poll = func() {
		c.pollOnce()
		c.kernel.After(every, poll)
	}
	c.kernel.After(every, poll)
}

func (c *Checker) pollOnce() {
	reason := c.driver.Stalled()
	switches := c.driver.Stats().Switches
	if reason != "" && reason == c.lastReason && switches == c.lastSwitches {
		c.stallStreak++
	} else {
		c.stallStreak = 0
	}
	c.lastReason, c.lastSwitches = reason, switches
	if c.stallStreak == 2 {
		c.fail(fmt.Sprintf("driver deadlocked: %s (unchanged across polls ending %v)",
			reason, c.kernel.Now()))
	}
}

const maxViolations = 64

func (c *Checker) fail(msg string) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, msg)
	}
}

// Verify folds checker failures and every watched invariant set into a
// single error (nil when the run was clean).
func (c *Checker) Verify() error {
	msgs := append([]string(nil), c.violations...)
	for _, w := range c.watched {
		if w.inv.Total() == 0 {
			continue
		}
		names := w.inv.Names()
		sort.Strings(names)
		for _, n := range names {
			msgs = append(msgs, fmt.Sprintf("%s: invariant %s violated %d time(s)",
				w.name, n, w.inv.Count(n)))
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("fault checker: %d failure(s):\n  %s",
		len(msgs), strings.Join(msgs, "\n  "))
}
