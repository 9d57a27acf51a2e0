package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"spider/internal/fault"
	"spider/internal/sweep"
	"spider/internal/wifi"
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

// TestTilePanicFailsRun: a tile that panics mid-epoch fails the run.
// Run returns the worker pool's *sweep.PanicError naming the tile, at
// any worker count, instead of crashing the process.
func TestTilePanicFailsRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := buildLike(1, workers, false)
		c.Tiles[1].World.Kernel.At(c.Layout.Epoch/2, func() { panic("injected tile panic") })
		err := c.Run(2 * c.Layout.Epoch)
		var pe *sweep.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers %d: Run returned %v, want a *sweep.PanicError", workers, err)
		}
		if pe.Index != 1 {
			t.Fatalf("workers %d: panic reported in tile %d, want 1", workers, pe.Index)
		}
	}
}

// TestMigrationCorruption: a corrupted handoff reaches a city only
// through a checkpoint, and restore refuses it rather than poisoning a
// world's scan tables. Corrupted are a scan-table record carried by a
// client that migrated (impossible channel, then zero BSSID) and a
// migration-log entry that moves a client out of a tile it never
// lived in.
func TestMigrationCorruption(t *testing.T) {
	run := buildLike(3, 2, false)
	if err := run.Run(18 * time.Second); err != nil {
		t.Fatal(err)
	}
	if run.Migrations == 0 {
		t.Fatal("fixture is dead: no migrations happened")
	}
	export := func() CityState {
		st, err := run.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// A migrated client's record, found in the tile it now lives in.
	tile, client := -1, -1
	for _, m := range export().MigLog {
		addr := run.clients[m.Client].Addr()
		for j, cs := range export().Tiles[run.residentTile[m.Client]].World.Clients {
			if cs.Addr == addr && len(cs.Driver.Table) > 0 {
				tile, client = int(run.residentTile[m.Client]), j
			}
		}
		if tile >= 0 {
			break
		}
	}
	if tile < 0 {
		t.Fatal("fixture is dead: no migrated client has a scan-table record")
	}
	for name, corrupt := range map[string]func(*CityState){
		"channel -1": func(st *CityState) { st.Tiles[tile].World.Clients[client].Driver.Table[0].Channel = -1 },
		"zero BSSID": func(st *CityState) { st.Tiles[tile].World.Clients[client].Driver.Table[0].BSSID = wifi.Addr{} },
		"miglog from": func(st *CityState) {
			st.MigLog[0].From, st.MigLog[0].To = st.MigLog[0].To, st.MigLog[0].From
		},
	} {
		st := export()
		corrupt(&st)
		if err := buildLike(3, 2, false).RestoreState(st); err == nil {
			t.Fatalf("%s: a corrupted handoff restored", name)
		}
	}
	if err := buildLike(3, 2, false).RestoreState(export()); err != nil {
		t.Fatalf("the uncorrupted checkpoint is refused: %v", err)
	}
}
