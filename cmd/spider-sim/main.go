// Command spider-sim runs one vehicular drive with a chosen driver
// configuration and reports the paper's §4.3 metrics.
//
// Usage:
//
//	spider-sim -config ch1-multi -minutes 30
//	spider-sim -config 3ch-multi -city boston -speed 8 -seed 7
//	spider-sim -config 3ch-multi -reps 8 -workers 4
//	spider-sim -city citygrid -clients 100 -aps 600 -minutes 2 -shards 4
//
// Configurations: ch1-multi, ch1-single, 3ch-multi, 3ch-single, stock.
//
// -city citygrid runs the sharded city-scale scenario instead of a
// single drive: a whole vehicle fleet over a square-kilometer AP
// deployment, partitioned into spatial tiles advancing in lockstep.
// -shards sets how many tiles advance concurrently; results are
// byte-identical at any value.
//
// With -reps N > 1, N independent replications of the drive run on the
// sweep engine (bounded by -workers goroutines) and the report adds
// mean ± stddev across replications. Replication seeds derive from
// (seed, config, rep), so the same flags always reproduce the same
// numbers at any worker count.
//
// Drives and cities are built by internal/expt (expt.Drive,
// expt.BuildCity), the same code the paper's experiments run on.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"spider/internal/archive"
	"spider/internal/checkpoint"
	"spider/internal/core"
	"spider/internal/expt"
	"spider/internal/fault"
	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/pcap"
	"spider/internal/prof"
	"spider/internal/scenario"
	"spider/internal/sweep"
)

// driveResult is one replication: the drive as run, the checker's
// verdict, and its observability exports.
type driveResult struct {
	expt.DriveRun
	seed       int64
	checkerErr error // invariant/deadlock/timer-leak verdict under -chaos

	// Observability exports (nil/empty when -metrics-out/-trace-out are
	// unset). Each replication snapshots its own registry; the reps path
	// merges the snapshots in index order, so the merged export is
	// identical at any -workers value.
	snap   obs.Snapshot
	tracer *obs.Tracer
}

// obsSpec carries the observability flags into runDrive.
type obsSpec struct {
	metrics bool
	trace   bool
	filter  []string
}

func (s obsSpec) enabled() bool { return s.metrics || s.trace }

// runDrive builds the drive, runs it, and gathers the exports. Each
// call is independent, so replications can run concurrently.
func runDrive(stdout io.Writer, d expt.Drive, dur time.Duration, pcapOut string, ospec obsSpec) (driveResult, error) {
	if ospec.enabled() {
		d.Obs = obs.New(0)
		d.Obs.Tracer.SetFilter(ospec.filter...)
	}
	run := d.Build()
	var capture *pcap.Capture
	if pcapOut != "" {
		capture = pcap.NewCapture(run.World.Medium, 0)
	}
	run.World.Run(dur)

	if capture != nil {
		f, err := os.Create(pcapOut)
		if err != nil {
			return driveResult{}, err
		}
		n, err := capture.Dump(f)
		f.Close()
		if err != nil {
			return driveResult{}, err
		}
		fmt.Fprintf(stdout, "wrote %d frames to %s (dropped %d over the capture limit)\n",
			n, pcapOut, capture.Dropped)
	}

	res := driveResult{DriveRun: run, seed: d.Seed}
	if run.Chaos != nil {
		res.checkerErr = run.Chaos.Checker.Verify()
	}
	if d.Obs != nil {
		res.snap = d.Obs.Reg.Snapshot()
		res.tracer = d.Obs.Tracer
	}
	return res, nil
}

func report(stdout io.Writer, r driveResult, dur time.Duration) {
	rec := r.Client.Rec
	fmt.Fprintf(stdout, "  avg throughput:   %s\n", metrics.FormatKBps(rec.ThroughputKBps(dur)))
	fmt.Fprintf(stdout, "  connectivity:     %s\n", metrics.FormatPct(rec.Connectivity(dur)))
	if conns := rec.Connections(dur); len(conns) > 0 {
		fmt.Fprintf(stdout, "  connections:      %d (median %.0fs)\n", len(conns), metrics.DurationsCDF(conns).Median())
	}
	if gaps := rec.Disruptions(dur); len(gaps) > 0 {
		fmt.Fprintf(stdout, "  disruptions:      %d (median %.0fs)\n", len(gaps), metrics.DurationsCDF(gaps).Median())
	}
	inst := metrics.NewCDF(rec.InstantaneousKBps(dur))
	if inst.N() > 0 {
		fmt.Fprintf(stdout, "  inst. bandwidth:  p50 %.0f / p90 %.0f KBps\n",
			inst.Quantile(0.5), inst.Quantile(0.9))
	}
	st := r.Client.Driver.Stats()
	fmt.Fprintf(stdout, "\n  joins: %d ok / %d dhcp-failed (%d fast-path, %d soft handoffs), assoc %d/%d, switches %d\n",
		st.JoinSuccesses, st.DHCPFailures, st.FastPathJoins, st.SoftHandoffs,
		st.AssocSuccesses, st.AssocAttempts, st.Switches)
	if r.Chaos == nil {
		return
	}
	if faults := r.Chaos.Injector.Report(); faults != "" {
		fmt.Fprintf(stdout, "  recovery: %d blacklisted (%d evictions), %d lease revalidations, %d reset faults\n",
			st.Blacklisted, st.BlacklistEvictions, st.LeaseRevalidations, st.ResetFaults)
		fmt.Fprintf(stdout, "\n%s", faults)
		if r.checkerErr != nil {
			fmt.Fprintf(stdout, "\n  CHECKER FAILED: %v\n", r.checkerErr)
		} else {
			fmt.Fprintf(stdout, "  checker: clean\n")
		}
	}
}

// writeDriveArchive archives one or more drive replications as one
// document: rep i becomes experiment "drive[i]" holding the client's
// ledger, the fault ledger, the metrics snapshot, trace-span summary
// and headline results. Replications come back index-ordered from the
// sweep, so the document is byte-identical at any -workers value.
func writeDriveArchive(stdout io.Writer, path string, seed int64, configFP, chaosSpec string, dur time.Duration, results []driveResult) error {
	a := archive.New(seed, configFP)
	for i, r := range results {
		expID := archive.SubID(a.RunID, fmt.Sprintf("experiment/drive[%d]", i), 0)
		exp := archive.Experiment{ID: expID, Name: fmt.Sprintf("drive[%d]", i), Chaos: chaosSpec}
		exp.Clients = append(exp.Clients, archive.ClientLedgerFrom(expID, 0, r.Client))
		var faults []fault.ClassStat
		if r.Chaos != nil {
			faults = r.Chaos.Injector.Snapshot()
		}
		exp.Faults = archive.FaultsFrom(expID, faults)
		exp.Metrics = archive.MetricsFrom(expID, r.snap)
		if r.tracer != nil {
			exp.Spans = archive.SpansFrom(expID, r.tracer.Events())
		}
		addNum := func(key string, v float64) {
			exp.Results = append(exp.Results, archive.Result{
				ID:   archive.SubID(expID, "result", len(exp.Results)),
				Name: "drive", Key: key, Num: &v,
			})
		}
		rec := r.Client.Rec
		addNum("throughput_KBps", rec.ThroughputKBps(dur))
		addNum("connectivity", rec.Connectivity(dur))
		addNum("connections", float64(len(rec.Connections(dur))))
		addNum("disruptions", float64(len(rec.Disruptions(dur))))
		a.Experiments = append(a.Experiments, exp)
	}
	if err := os.WriteFile(path, a.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (run %s, %d experiments)\n", path, a.RunID, len(a.Experiments))
	return nil
}

// ckptOpts carries the crash-resume flags into the citygrid runner.
type ckptOpts struct {
	out    string // -checkpoint-out: checkpoint file path
	every  int    // -checkpoint-every: rewrite it every N barrier epochs (0 = only at end)
	resume string // -resume: checkpoint file to restore before running
}

// runCityGrid builds the sharded city-scale scenario through expt's
// city builder, runs it, and reports fleet-wide aggregates.
func runCityGrid(stdout io.Writer, spec scenario.CityGridSpec, cfg core.Config, opts expt.Options, dur time.Duration, ospec obsSpec, metricsOut, traceOut, archiveOut, configFP string, ck ckptOpts) error {
	start := time.Now()
	var co *expt.CityObs
	if ospec.enabled() || archiveOut != "" {
		co = &expt.CityObs{Filter: ospec.filter}
	}
	c, err := expt.BuildCity(spec, cfg, opts, co)
	if err != nil {
		return fmt.Errorf("citygrid: %w", err)
	}
	if ck.resume != "" {
		doc, err := checkpoint.ReadFile(ck.resume)
		if err != nil {
			return err
		}
		if err := doc.Apply(c, spec.Seed, configFP); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "resumed from %s at t=%v\n", ck.resume, c.Now())
	}
	writeCkpt := func() error {
		doc, err := checkpoint.Capture(c, spec.Seed, configFP)
		if err != nil {
			return err
		}
		return checkpoint.WriteFile(ck.out, doc)
	}
	if ck.out != "" && ck.every > 0 {
		// Periodic checkpoints land on the barrier-epoch grid, so a
		// resumed run reproduces the uninterrupted run's barrier
		// schedule (and therefore its bytes) exactly.
		step := time.Duration(ck.every) * c.Layout.Epoch
		for c.Now() < dur {
			next := c.Now() + step
			if next > dur {
				next = dur
			}
			if err := c.Run(next); err != nil {
				return err
			}
			if err := writeCkpt(); err != nil {
				return err
			}
		}
	} else if err := c.Run(dur); err != nil {
		return err
	}
	if ck.out != "" && ck.every <= 0 {
		if err := writeCkpt(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "City: %.0f×%.0f m, %d APs, %d clients, %v simulated (%v wall)\n",
		spec.AreaW, spec.AreaH, spec.NumAPs, spec.NumClients, dur, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "Layout: %s, %d shard workers\n", c.Layout, sweep.Workers(c.Workers))
	fmt.Fprintf(stdout, "Driver: %s\n\n", cfg.Mode)

	var tputs []float64
	var joins, switches, haloRecs uint64
	for _, cl := range c.Clients() {
		tputs = append(tputs, cl.Rec.ThroughputKBps(dur))
		s := cl.Stats()
		joins += s.JoinSuccesses
		switches += s.Switches
	}
	for _, t := range c.Tiles {
		haloRecs += t.World.Medium.Stats().HaloInjected
		fmt.Fprintf(stdout, "  tile %d [%5.0f, %5.0f)×[%5.0f, %5.0f): %3d APs, %3d clients\n",
			t.Index, t.X0, t.X1, t.Y0, t.Y1, len(t.World.APs), len(t.World.Clients))
	}
	cdf := metrics.NewCDF(tputs)
	fmt.Fprintf(stdout, "\n  fleet goodput:    mean %s, p50 %s, p90 %s\n",
		metrics.FormatKBps(metrics.Mean(tputs)),
		metrics.FormatKBps(cdf.Quantile(0.5)), metrics.FormatKBps(cdf.Quantile(0.9)))
	fmt.Fprintf(stdout, "  joins: %d ok, switches %d\n", joins, switches)
	fmt.Fprintf(stdout, "  shard machinery:  %d migrations, %d halo beacons mirrored\n", c.Migrations, haloRecs)
	if len(c.Injectors) > 0 {
		fmt.Fprintf(stdout, "  faults injected:  %d\n", c.TotalInjected())
	}
	if inv := c.InvariantsTotal(); inv > 0 {
		fmt.Fprintf(stdout, "  INVARIANT VIOLATIONS: %d\n", inv)
	}
	// Engine summary: how fast the run went and what it cost. Fired
	// counts are deterministic (kernel events are the simulation), the
	// rate and heap figure are this machine's.
	var fired uint64
	for _, t := range c.Tiles {
		fired += t.World.Kernel.Fired()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wall := time.Since(start)
	fmt.Fprintf(stdout, "  engine: %.1f sim-s per wall-s, %d kernel events dispatched, peak heap %d MiB\n",
		dur.Seconds()/wall.Seconds(), fired, ms.HeapSys>>20)

	if metricsOut != "" {
		if err := obs.WriteMetricsFile(metricsOut, c.MergedSnapshot()); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := obs.WriteTraceEventsFile(traceOut, c.TraceEvents()); err != nil {
			return err
		}
	}
	if archiveOut != "" {
		a := archive.New(spec.Seed, configFP)
		expID := archive.SubID(a.RunID, "experiment/citygrid", 0)
		a.Experiments = append(a.Experiments, archive.CityExperiment(expID, "citygrid", opts.Chaos, c, dur))
		if err := os.WriteFile(archiveOut, a.Encode(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (run %s)\n", archiveOut, a.RunID)
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command behind main: it parses args, runs, and returns the
// process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("spider-sim", flag.ContinueOnError)
	var (
		config   = fs.String("config", "ch1-multi", "driver configuration")
		city     = fs.String("city", "amherst", "scenario: amherst, boston, or citygrid (sharded fleet)")
		clients  = fs.Int("clients", 100, "vehicle fleet size (citygrid only)")
		shards   = fs.Int("shards", 1, "concurrent tile workers (citygrid only; results identical at any value)")
		minutes  = fs.Int("minutes", 30, "drive duration in simulated minutes")
		seed     = fs.Int64("seed", 1, "simulation seed")
		speed    = fs.Float64("speed", 0, "override vehicle speed (m/s)")
		numAPs   = fs.Int("aps", 0, "override deployed AP count")
		areaW    = fs.Float64("area-w", 0, "override city width in meters (citygrid only)")
		areaH    = fs.Float64("area-h", 0, "override city height in meters (citygrid only)")
		reps     = fs.Int("reps", 1, "independent drive replications")
		workers  = fs.Int("workers", runtime.NumCPU(), "worker goroutines when -reps > 1")
		pcapOut  = fs.String("pcap", "", "write an over-the-air capture to this file (single rep only)")
		chaos    = fs.String("chaos", "", "fault injection: off, mild, aggressive, or a timeline script")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		metricsO = fs.String("metrics-out", "", "write Prometheus-format metrics to this file (reps merge in index order)")
		traceO   = fs.String("trace-out", "", "write the event trace to this file: .jsonl for JSONL, else Chrome trace JSON (single rep only)")
		traceF   = fs.String("trace-filter", "", "comma-separated category prefixes to trace (empty = all)")
		archO    = fs.String("archive-out", "", "write a run archive to this file (byte-identical at any -workers/-shards)")
		ckptO    = fs.String("checkpoint-out", "", "write a resumable checkpoint to this file (citygrid only)")
		ckptN    = fs.Int("checkpoint-every", 0, "rewrite -checkpoint-out every N barrier epochs (0 = only at run end)")
		resume   = fs.String("resume", "", "resume a citygrid run from this checkpoint file (same seed and flags)")
		joinSpd  = fs.Duration("join-spread", 0, "stagger client admission over this window (citygrid only; 0 = legacy t=0 join storm)")
		joinRamp = fs.String("join-ramp", "uniform", "admission offset shape with -join-spread: uniform or exp")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err any) int {
		fmt.Fprintln(os.Stderr, "spider-sim:", err)
		return code
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(2, err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "spider-sim:", err)
		}
	}()

	cfg, err := expt.DriverConfig(*config)
	if err != nil {
		return fail(2, err)
	}
	// The config fingerprint covers every flag that changes results and
	// none that may not: -workers and -shards are deliberately outside
	// it, since archives must compare byte-identical across them.
	fpParts := []string{
		"config=" + *config,
		"city=" + *city,
		fmt.Sprintf("clients=%d", *clients),
		fmt.Sprintf("minutes=%d", *minutes),
		fmt.Sprintf("speed=%g", *speed),
		fmt.Sprintf("aps=%d", *numAPs),
		fmt.Sprintf("area=%gx%g", *areaW, *areaH),
		fmt.Sprintf("reps=%d", *reps),
		"chaos=" + *chaos,
	}
	// Staggered admission changes simulated bytes, so it splits the
	// fingerprint — conditionally, so legacy invocations (and their
	// checkpoints) keep their historical identity.
	if *joinSpd > 0 {
		fpParts = append(fpParts,
			fmt.Sprintf("join-spread=%s", *joinSpd), "join-ramp="+*joinRamp)
	}
	configFP := archive.FP(fpParts...)
	// The same option check every front-end runs: ramp, spread, shard
	// count and chaos spec, refused before any simulation.
	opts := expt.Options{Seed: *seed, Chaos: *chaos, Shards: *shards, JoinSpread: *joinSpd, JoinRamp: *joinRamp}
	if err := opts.Validate(); err != nil {
		return fail(2, err)
	}
	if *joinSpd > 0 && *city != "citygrid" {
		return fail(2, "-join-spread requires -city citygrid")
	}
	if *city != "citygrid" && (*ckptO != "" || *ckptN > 0 || *resume != "") {
		return fail(2, "-checkpoint-out/-checkpoint-every/-resume require -city citygrid")
	}
	dur := time.Duration(*minutes) * time.Minute
	var filter []string
	if *traceF != "" {
		filter = strings.Split(*traceF, ",")
	}
	if *city == "citygrid" {
		if *reps > 1 {
			return fail(2, "-city citygrid requires -reps 1 (use -shards for parallelism)")
		}
		if *numAPs <= 0 {
			*numAPs = 600
		}
		spec := scenario.CityGrid(*seed, *numAPs, *clients)
		if *areaW > 0 {
			spec.AreaW = *areaW
		}
		if *areaH > 0 {
			spec.AreaH = *areaH
		}
		ospec := obsSpec{metrics: *metricsO != "", trace: *traceO != "", filter: filter}
		err := runCityGrid(stdout, spec, cfg, opts, dur, ospec, *metricsO, *traceO, *archO, configFP,
			ckptOpts{out: *ckptO, every: *ckptN, resume: *resume})
		if err != nil {
			return fail(1, err)
		}
		return 0
	}
	if *reps < 1 {
		return fail(2, "-reps must be at least 1")
	}
	if *pcapOut != "" && *reps > 1 {
		return fail(2, "-pcap requires -reps 1")
	}
	if *traceO != "" && *reps > 1 {
		return fail(2, "-trace-out requires -reps 1")
	}
	drive := expt.Drive{Boston: *city == "boston", SpeedMS: *speed, NumAPs: *numAPs, Config: cfg}
	if *chaos != "" {
		fcfg, tl, _, _ := fault.Resolve(*chaos) // Validate resolved it already
		drive.Faults, drive.Timeline = &fcfg, tl
	}
	// Archiving wants the metrics snapshot even without -metrics-out;
	// attaching obs never perturbs results (the registry is passive).
	ospec := obsSpec{metrics: *metricsO != "" || *archO != "", trace: *traceO != "", filter: filter}
	start := time.Now()

	// One rep runs on -seed itself; with more, each replication derives
	// its world seed from (seed, config, rep): distinct streams per rep,
	// reproducible at any -workers value. The fold runs after the sweep,
	// over the index-ordered results, so both the report and the merged
	// metrics are worker-count independent.
	type accum struct {
		results []driveResult
		snaps   []obs.Snapshot
	}
	acc, err := sweep.Reduce(context.Background(), *workers, *reps,
		func(_ context.Context, rep int) (driveResult, error) {
			d := drive
			d.Seed = *seed
			if *reps > 1 {
				d.Seed = sweep.TaskSeed(*seed, *config, rep)
			}
			return runDrive(stdout, d, dur, *pcapOut, ospec)
		},
		accum{}, func(a accum, r driveResult) accum {
			a.results = append(a.results, r)
			if r.snap != nil {
				a.snaps = append(a.snaps, r.snap)
			}
			return a
		})
	if err != nil {
		return fail(1, err)
	}
	results := acc.results
	var checkerFailed bool
	if *reps == 1 {
		r := results[0]
		fmt.Fprintf(stdout, "Drive: %s, %d APs, %.1f m/s, %v simulated (%v wall)\n",
			*city, len(r.World.APs), drive.Spec().SpeedMS, dur, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "Driver: %s\n\n", cfg.Mode)
		report(stdout, r, dur)
		checkerFailed = r.checkerErr != nil
	} else {
		fmt.Fprintf(stdout, "Drive: %s, %d APs, %.1f m/s, %v simulated ×%d reps (%v wall, %d workers)\n",
			*city, len(results[0].World.APs), drive.Spec().SpeedMS, dur, *reps,
			time.Since(start).Round(time.Millisecond), sweep.Workers(*workers))
		fmt.Fprintf(stdout, "Driver: %s\n\n", cfg.Mode)
		checkerFailed = reportReps(stdout, results, dur)
	}
	if *metricsO != "" {
		if err := obs.WriteMetricsFile(*metricsO, obs.MergeSnapshots(acc.snaps...)); err != nil {
			return fail(1, err)
		}
	}
	if *traceO != "" { // -trace-out requires -reps 1
		tr := results[0].tracer
		if err := obs.WriteTraceFile(*traceO, tr); err != nil {
			return fail(1, err)
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "spider-sim: trace ring wrapped; oldest %d events dropped (narrow with -trace-filter)\n", d)
		}
	}
	if *archO != "" {
		if err := writeDriveArchive(stdout, *archO, *seed, configFP, *chaos, dur, results); err != nil {
			return fail(1, err)
		}
	}
	if checkerFailed {
		return 1
	}
	return 0
}

// reportReps prints one line per replication, then the mean ± stddev
// of throughput and connectivity. It reports whether any replication's
// invariant checker failed.
func reportReps(stdout io.Writer, results []driveResult, dur time.Duration) (checkerFailed bool) {
	var tputs, conn []float64
	for i, r := range results {
		rec := r.Client.Rec
		tput, c := rec.ThroughputKBps(dur), rec.Connectivity(dur)
		fmt.Fprintf(stdout, "  rep %d (seed %d): %s, connectivity %s, %d connections, %d disruptions\n",
			i, r.seed, metrics.FormatKBps(tput), metrics.FormatPct(c),
			len(rec.Connections(dur)), len(rec.Disruptions(dur)))
		if r.checkerErr != nil {
			fmt.Fprintf(stdout, "    CHECKER FAILED: %v\n", r.checkerErr)
			checkerFailed = true
		}
		tputs = append(tputs, tput)
		conn = append(conn, c)
	}
	fmt.Fprintf(stdout, "\n  avg throughput:   %s ± %s\n",
		metrics.FormatKBps(metrics.Mean(tputs)), metrics.FormatKBps(metrics.StdDev(tputs)))
	fmt.Fprintf(stdout, "  connectivity:     %s ± %s\n",
		metrics.FormatPct(metrics.Mean(conn)), metrics.FormatPct(metrics.StdDev(conn)))
	return checkerFailed
}
