package shard

import (
	"fmt"
	"testing"
	"time"

	"spider/internal/fault"
)

// buildLike rebuilds a city the way the checkpointed run was built:
// same spec, same obs/chaos attachments.
func buildLike(seed int64, workers int, chaos bool) *City {
	c := NewCity(testSpec(seed), testCfg(), workers)
	c.EnableObs(0)
	if chaos {
		c.ApplyChaos(fault.Aggressive())
	}
	return c
}

// TestCityCheckpointRoundTrip is the in-process kill/resume identity
// check: a run interrupted at a barrier, checkpointed, restored into a
// freshly built city and continued must produce a byte-identical
// fingerprint to the uninterrupted run — across seeds × worker counts ×
// clean/chaos. It also proves export itself perturbs nothing: the
// interrupted city keeps running after ExportState and must converge
// too.
func TestCityCheckpointRoundTrip(t *testing.T) {
	const (
		cut   = 9 * time.Second
		until = 21 * time.Second
	)
	for _, chaos := range []bool{false, true} {
		for _, tc := range []struct {
			seed    int64
			workers int
		}{{1, 1}, {2, 4}} {
			tc, chaos := tc, chaos
			t.Run(fmt.Sprintf("seed%d/workers%d/chaos=%v", tc.seed, tc.workers, chaos), func(t *testing.T) {
				t.Parallel()
				ref := buildLike(tc.seed, tc.workers, chaos)
				if err := ref.Run(until); err != nil {
					t.Fatal(err)
				}
				want := fingerprint(t, ref)

				cutRun := buildLike(tc.seed, tc.workers, chaos)
				if err := cutRun.Run(cut); err != nil {
					t.Fatal(err)
				}
				st, err := cutRun.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if err := cutRun.Run(until); err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(t, cutRun); got != want {
					t.Fatalf("ExportState perturbed the run:\n%s", firstDiff(got, want))
				}

				resumed := buildLike(tc.seed, tc.workers, chaos)
				if err := resumed.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				if resumed.Now() != cut {
					t.Fatalf("restored to %v, want %v", resumed.Now(), cut)
				}
				if err := resumed.Run(until); err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(t, resumed); got != want {
					t.Fatalf("resumed run diverged:\n%s", firstDiff(got, want))
				}
			})
		}
	}
}

// TestCityCheckpointAfterMigration pins the migration-replay path: the
// checkpoint is taken after clients have crossed tile boundaries, so
// the restore must replay the handoffs to reproduce each medium's radio
// registration order.
func TestCityCheckpointAfterMigration(t *testing.T) {
	const (
		cut   = 18 * time.Second
		until = 26 * time.Second
	)
	ref := buildLike(3, 2, false)
	if err := ref.Run(until); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, ref)

	cutRun := buildLike(3, 2, false)
	if err := cutRun.Run(cut); err != nil {
		t.Fatal(err)
	}
	if cutRun.Migrations == 0 {
		t.Fatalf("fixture is dead: no migrations by %v; pick a later cut", cut)
	}
	st, err := cutRun.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.MigLog) != int(st.Migrations) {
		t.Fatalf("migration log has %d entries, counter says %d", len(st.MigLog), st.Migrations)
	}
	resumed := buildLike(3, 2, false)
	if err := resumed.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(until); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, resumed); got != want {
		t.Fatalf("post-migration resume diverged:\n%s", firstDiff(got, want))
	}
}

// TestCityRestoreMismatch verifies the config cross-checks: a chaos
// checkpoint refuses to restore into a clean city and vice versa.
func TestCityRestoreMismatch(t *testing.T) {
	run := buildLike(1, 1, true)
	if err := run.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := run.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildLike(1, 1, false).RestoreState(st); err == nil {
		t.Fatal("chaos checkpoint restored into a clean city")
	}

	clean := buildLike(1, 1, false)
	if err := clean.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	cst, err := clean.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildLike(1, 1, true).RestoreState(cst); err == nil {
		t.Fatal("clean checkpoint restored into a chaos city")
	}
	used := buildLike(1, 1, false)
	if err := used.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := used.RestoreState(cst); err == nil {
		t.Fatal("checkpoint restored into a city that already ran")
	}
}

// TestWatchdogTileStall is the acceptance check for shard-layer fault
// tolerance: a wedged tile must surface as a counted fault within one
// watchdog epoch and quarantine, not hang the run.
func TestWatchdogTileStall(t *testing.T) {
	c := buildLike(1, 0, false)
	// Healthy tiles must beat the watchdog every epoch: under the race
	// detector on two cores an epoch of this city takes 30–50 ms, so the
	// bound sits well clear of it. Only the wedged tile can miss it.
	c.Watchdog = time.Second
	release := c.InjectTileStall(0)

	doneCh := make(chan error, 1)
	go func() { doneCh <- c.Run(3 * c.Layout.Epoch) }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung despite watchdog")
	}
	release()
	c.Quiesce()

	if got := c.QuarantinedTiles(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("quarantined tiles = %v, want [0]", got)
	}
	counts := map[string]uint64{}
	for _, cs := range c.ShardFaults() {
		counts[cs.Class] = cs.Injected
	}
	if counts[fault.ClassTileStall] != 1 || counts[fault.ClassBarrierTimeout] != 1 {
		t.Fatalf("shard faults = %v, want one tile-stall and one barrier-timeout", c.ShardFaults())
	}
	if c.Now() != 3*c.Layout.Epoch {
		t.Fatalf("city stopped at %v, want %v", c.Now(), 3*c.Layout.Epoch)
	}
	if _, err := c.ExportState(); err == nil {
		t.Fatal("quarantined city exported a checkpoint")
	}
}

// TestWatchdogTilePanic: a panicking tile is recovered, counted and
// quarantined instead of crashing the process.
func TestWatchdogTilePanic(t *testing.T) {
	c := buildLike(1, 0, false)
	c.Watchdog = 10 * time.Second
	// Arm a panic through the stall gate: close the channel with a
	// poisoned world — simplest is to panic from a scheduled event.
	c.Tiles[1].World.Kernel.At(c.Layout.Epoch/2, func() { panic("injected tile panic") })
	if err := c.Run(2 * c.Layout.Epoch); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	if got := c.QuarantinedTiles(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("quarantined tiles = %v, want [1]", got)
	}
	counts := map[string]uint64{}
	for _, cs := range c.ShardFaults() {
		counts[cs.Class] = cs.Injected
	}
	if counts[fault.ClassTileStall] != 1 {
		t.Fatalf("shard faults = %v, want one tile-stall", c.ShardFaults())
	}
}

// TestMigrationCorruption: a corrupted handoff record is repaired
// (dropped) and counted, and the run completes.
func TestMigrationCorruption(t *testing.T) {
	c := buildLike(3, 2, false)
	c.InjectMigrationCorruption()
	if err := c.Run(26 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Migrations == 0 {
		t.Fatal("fixture is dead: no migrations happened")
	}
	counts := map[string]uint64{}
	for _, cs := range c.ShardFaults() {
		counts[cs.Class] = cs.Injected
	}
	if counts[fault.ClassMigrationCorrupt] != 1 {
		t.Fatalf("shard faults = %v, want one migration-corrupt", c.ShardFaults())
	}
}
