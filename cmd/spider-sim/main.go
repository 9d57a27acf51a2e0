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
package main

import (
	"context"
	"flag"
	"fmt"
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
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/shard"
	"spider/internal/sweep"
)

// driveResult holds one replication's §4.3 metrics.
type driveResult struct {
	seed           int64
	numAPs         int
	speedMS        float64
	mode           core.Mode
	throughputKBps float64
	connectivity   float64
	conns, gaps    []time.Duration
	instKBps       []float64
	stats          core.Stats
	faultReport    string // per-class ledger when -chaos is active
	checkerErr     error  // invariant/deadlock/timer-leak verdict

	// client is the drive's single client, kept for the archive writer
	// (its recorder and join log are the per-client ledger); faultStats
	// is the raw per-class ledger behind faultReport.
	client     *scenario.Client
	faultStats []fault.ClassStat

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

// runDrive builds a fresh world from the flags and one seed, runs the
// drive, and gathers the metrics. Each call is independent, so
// replications can run concurrently.
func runDrive(cfg core.Config, city string, seed int64, speed float64, numAPs int, dur time.Duration, pcapOut, chaosSpec string, ospec obsSpec) (driveResult, error) {
	spec := scenario.AmherstDrive(seed)
	if city == "boston" {
		spec = scenario.BostonDrive(seed)
	}
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	rc.Loss = 0.08
	rc.EdgeStart = 0.55
	spec.Radio = rc
	if speed > 0 {
		spec.SpeedMS = speed
	}
	if numAPs > 0 {
		spec.NumAPs = numAPs
	}
	world, mob := spec.Build()
	// Attach before AddClient and ApplyChaos so the driver histograms and
	// the injector's episode spans are wired from the start.
	var o *obs.Obs
	if ospec.enabled() {
		o = obs.New(0)
		o.Tracer.SetFilter(ospec.filter...)
		world.AttachObs(o)
	}
	client := world.AddClient(cfg, mob)
	var chaos *scenario.Chaos
	if chaosSpec != "" {
		fcfg, tl, _, err := fault.Resolve(chaosSpec)
		if err != nil {
			return driveResult{}, err
		}
		chaos = scenario.ApplyChaos(world, client, fcfg)
		if len(tl) > 0 {
			chaos.Injector.ScheduleTimeline(tl)
			chaos.Checker.StartLiveness(5 * time.Second)
		}
	}
	var capture *pcap.Capture
	if pcapOut != "" {
		capture = pcap.NewCapture(world.Medium, 0)
	}
	world.Run(dur)

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
		fmt.Printf("wrote %d frames to %s (dropped %d over the capture limit)\n",
			n, pcapOut, capture.Dropped)
	}

	res := driveResult{
		seed:           seed,
		numAPs:         len(world.APs),
		speedMS:        spec.SpeedMS,
		mode:           cfg.Mode,
		throughputKBps: client.Rec.ThroughputKBps(dur),
		connectivity:   client.Rec.Connectivity(dur),
		conns:          client.Rec.Connections(dur),
		gaps:           client.Rec.Disruptions(dur),
		instKBps:       client.Rec.InstantaneousKBps(dur),
		stats:          client.Driver.Stats(),
		client:         client,
	}
	if chaos != nil {
		res.faultReport = chaos.Injector.Report()
		res.faultStats = chaos.Injector.Snapshot()
		res.checkerErr = chaos.Checker.Verify()
	}
	if o != nil {
		res.snap = o.Reg.Snapshot()
		res.tracer = o.Tracer
	}
	return res, nil
}

func report(r driveResult) {
	fmt.Printf("  avg throughput:   %s\n", metrics.FormatKBps(r.throughputKBps))
	fmt.Printf("  connectivity:     %s\n", metrics.FormatPct(r.connectivity))
	if len(r.conns) > 0 {
		cdf := metrics.DurationsCDF(r.conns)
		fmt.Printf("  connections:      %d (median %.0fs)\n", len(r.conns), cdf.Median())
	}
	if len(r.gaps) > 0 {
		cdf := metrics.DurationsCDF(r.gaps)
		fmt.Printf("  disruptions:      %d (median %.0fs)\n", len(r.gaps), cdf.Median())
	}
	inst := metrics.NewCDF(r.instKBps)
	if inst.N() > 0 {
		fmt.Printf("  inst. bandwidth:  p50 %.0f / p90 %.0f KBps\n",
			inst.Quantile(0.5), inst.Quantile(0.9))
	}
	st := r.stats
	fmt.Printf("\n  joins: %d ok / %d dhcp-failed (%d fast-path, %d soft handoffs), assoc %d/%d, switches %d\n",
		st.JoinSuccesses, st.DHCPFailures, st.FastPathJoins, st.SoftHandoffs,
		st.AssocSuccesses, st.AssocAttempts, st.Switches)
	if r.faultReport != "" {
		fmt.Printf("  recovery: %d blacklisted (%d evictions), %d lease revalidations, %d reset faults\n",
			st.Blacklisted, st.BlacklistEvictions, st.LeaseRevalidations, st.ResetFaults)
		fmt.Printf("\n%s", r.faultReport)
		if r.checkerErr != nil {
			fmt.Printf("\n  CHECKER FAILED: %v\n", r.checkerErr)
		} else {
			fmt.Printf("  checker: clean\n")
		}
	}
}

// writeObs writes the single-rep observability exports.
func writeObs(metricsOut, traceOut string, snap obs.Snapshot, tr *obs.Tracer) error {
	if metricsOut != "" {
		if err := obs.WriteMetricsFile(metricsOut, snap); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := obs.WriteTraceFile(traceOut, tr); err != nil {
			return err
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "spider-sim: trace ring wrapped; oldest %d events dropped (narrow with -trace-filter)\n", d)
		}
	}
	return nil
}

// writeDriveArchive archives one or more drive replications as one
// document: rep i becomes experiment "drive[i]" holding the client's
// ledger, the fault ledger, the metrics snapshot, trace-span summary
// and headline results. Replications come back index-ordered from the
// sweep, so the document is byte-identical at any -workers value.
func writeDriveArchive(path string, seed int64, configFP, chaosSpec string, results []driveResult) error {
	a := archive.New(seed, configFP)
	for i, r := range results {
		expID := archive.SubID(a.RunID, fmt.Sprintf("experiment/drive[%d]", i), 0)
		exp := archive.Experiment{ID: expID, Name: fmt.Sprintf("drive[%d]", i), Chaos: chaosSpec}
		exp.Clients = append(exp.Clients, archive.ClientLedgerFrom(expID, 0, r.client))
		exp.Faults = archive.FaultsFrom(expID, r.faultStats)
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
		addNum("throughput_KBps", r.throughputKBps)
		addNum("connectivity", r.connectivity)
		addNum("connections", float64(len(r.conns)))
		addNum("disruptions", float64(len(r.gaps)))
		a.Experiments = append(a.Experiments, exp)
	}
	if err := os.WriteFile(path, a.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (run %s, %d experiments)\n", path, a.RunID, len(a.Experiments))
	return nil
}

// ckptOpts carries the crash-resume flags into the citygrid runner.
type ckptOpts struct {
	out    string // -checkpoint-out: checkpoint file path
	every  int    // -checkpoint-every: rewrite it every N barrier epochs (0 = only at end)
	resume string // -resume: checkpoint file to restore before running
}

// runCityGrid builds and runs the sharded city-scale scenario and
// reports fleet-wide aggregates.
func runCityGrid(cfg core.Config, seed int64, numAPs, clients, shards int, areaW, areaH float64, joinSpread time.Duration, joinRamp string, dur time.Duration, chaosSpec string, ospec obsSpec, metricsOut, traceOut, archiveOut, configFP string, ck ckptOpts) error {
	if numAPs <= 0 {
		numAPs = 600
	}
	spec := scenario.CityGrid(seed, numAPs, clients)
	if areaW > 0 {
		spec.AreaW = areaW
	}
	if areaH > 0 {
		spec.AreaH = areaH
	}
	spec.JoinSpread, spec.JoinRamp = joinSpread, joinRamp
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	spec.Radio = rc

	start := time.Now()
	c := shard.NewCity(spec, cfg, shards)
	if ospec.enabled() || archiveOut != "" {
		c.EnableObs(0, ospec.filter...)
	}
	if chaosSpec != "" {
		fcfg, ok := fault.Profile(chaosSpec)
		if !ok {
			return fmt.Errorf("citygrid: unknown chaos profile %q (timeline scripts are single-drive only)", chaosSpec)
		}
		c.ApplyChaos(fcfg)
	}
	if ck.resume != "" {
		doc, err := checkpoint.ReadFile(ck.resume)
		if err != nil {
			return err
		}
		if err := doc.Apply(c, seed, configFP); err != nil {
			return err
		}
		fmt.Printf("resumed from %s at t=%v\n", ck.resume, c.Now())
	}
	writeCkpt := func() error {
		doc, err := checkpoint.Capture(c, seed, configFP)
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

	fmt.Printf("City: %.0f×%.0f m, %d APs, %d clients, %v simulated (%v wall)\n",
		spec.AreaW, spec.AreaH, numAPs, clients, dur, time.Since(start).Round(time.Millisecond))
	fmt.Printf("Layout: %s, %d shard workers\n", c.Layout, sweep.Workers(shards))
	fmt.Printf("Driver: %s\n\n", cfg.Mode)

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
		fmt.Printf("  tile %d [%5.0f, %5.0f)×[%5.0f, %5.0f): %3d APs, %3d clients\n",
			t.Index, t.X0, t.X1, t.Y0, t.Y1, len(t.World.APs), len(t.World.Clients))
	}
	cdf := metrics.NewCDF(tputs)
	fmt.Printf("\n  fleet goodput:    mean %s, p50 %s, p90 %s\n",
		metrics.FormatKBps(metrics.Mean(tputs)),
		metrics.FormatKBps(cdf.Quantile(0.5)), metrics.FormatKBps(cdf.Quantile(0.9)))
	fmt.Printf("  joins: %d ok, switches %d\n", joins, switches)
	fmt.Printf("  shard machinery:  %d migrations, %d halo beacons mirrored\n", c.Migrations, haloRecs)
	if len(c.Injectors) > 0 {
		fmt.Printf("  faults injected:  %d\n", c.TotalInjected())
	}
	if inv := c.InvariantsTotal(); inv > 0 {
		fmt.Printf("  INVARIANT VIOLATIONS: %d\n", inv)
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
	fmt.Printf("  engine: %.1f sim-s per wall-s, %d kernel events dispatched, peak heap %d MiB\n",
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
		a := archive.New(seed, configFP)
		expID := archive.SubID(a.RunID, "experiment/citygrid", 0)
		a.Experiments = append(a.Experiments, archive.CityExperiment(expID, "citygrid", chaosSpec, c, dur))
		if err := os.WriteFile(archiveOut, a.Encode(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (run %s)\n", archiveOut, a.RunID)
	}
	return nil
}

func main() {
	var (
		config   = flag.String("config", "ch1-multi", "driver configuration")
		city     = flag.String("city", "amherst", "scenario: amherst, boston, or citygrid (sharded fleet)")
		clients  = flag.Int("clients", 100, "vehicle fleet size (citygrid only)")
		shards   = flag.Int("shards", 1, "concurrent tile workers (citygrid only; results identical at any value)")
		minutes  = flag.Int("minutes", 30, "drive duration in simulated minutes")
		seed     = flag.Int64("seed", 1, "simulation seed")
		speed    = flag.Float64("speed", 0, "override vehicle speed (m/s)")
		numAPs   = flag.Int("aps", 0, "override deployed AP count")
		areaW    = flag.Float64("area-w", 0, "override city width in meters (citygrid only)")
		areaH    = flag.Float64("area-h", 0, "override city height in meters (citygrid only)")
		reps     = flag.Int("reps", 1, "independent drive replications")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker goroutines when -reps > 1")
		pcapOut  = flag.String("pcap", "", "write an over-the-air capture to this file (single rep only)")
		chaos    = flag.String("chaos", "", "fault injection: off, mild, aggressive, or a timeline script")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metricsO = flag.String("metrics-out", "", "write Prometheus-format metrics to this file (reps merge in index order)")
		traceO   = flag.String("trace-out", "", "write the event trace to this file: .jsonl for JSONL, else Chrome trace JSON (single rep only)")
		traceF   = flag.String("trace-filter", "", "comma-separated category prefixes to trace (empty = all)")
		archO    = flag.String("archive-out", "", "write a run archive to this file (byte-identical at any -workers/-shards)")
		ckptO    = flag.String("checkpoint-out", "", "write a resumable checkpoint to this file (citygrid only)")
		ckptN    = flag.Int("checkpoint-every", 0, "rewrite -checkpoint-out every N barrier epochs (0 = only at run end)")
		resume   = flag.String("resume", "", "resume a citygrid run from this checkpoint file (same seed and flags)")
		joinSpd  = flag.Duration("join-spread", 0, "stagger client admission over this window (citygrid only; 0 = legacy t=0 join storm)")
		joinRamp = flag.String("join-ramp", "uniform", "admission offset shape with -join-spread: uniform or exp")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spider-sim:", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "spider-sim:", err)
		}
	}()

	cfg, err := expt.DriverConfig(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spider-sim:", err)
		os.Exit(2)
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
	if *joinSpd < 0 || (*joinRamp != "uniform" && *joinRamp != "exp") {
		fmt.Fprintln(os.Stderr, "spider-sim: -join-spread must be >= 0 and -join-ramp uniform or exp")
		os.Exit(2)
	}
	if *joinSpd > 0 && *city != "citygrid" {
		fmt.Fprintln(os.Stderr, "spider-sim: -join-spread requires -city citygrid")
		os.Exit(2)
	}
	if *city != "citygrid" && (*ckptO != "" || *ckptN > 0 || *resume != "") {
		fmt.Fprintln(os.Stderr, "spider-sim: -checkpoint-out/-checkpoint-every/-resume require -city citygrid")
		os.Exit(2)
	}
	if *city == "citygrid" {
		if *reps > 1 {
			fmt.Fprintln(os.Stderr, "spider-sim: -city citygrid requires -reps 1 (use -shards for parallelism)")
			os.Exit(2)
		}
		ospec := obsSpec{metrics: *metricsO != "", trace: *traceO != ""}
		if *traceF != "" {
			ospec.filter = strings.Split(*traceF, ",")
		}
		err := runCityGrid(cfg, *seed, *numAPs, *clients, *shards, *areaW, *areaH, *joinSpd, *joinRamp,
			time.Duration(*minutes)*time.Minute, *chaos, ospec, *metricsO, *traceO, *archO, configFP,
			ckptOpts{out: *ckptO, every: *ckptN, resume: *resume})
		if err != nil {
			fmt.Fprintln(os.Stderr, "spider-sim:", err)
			os.Exit(1)
		}
		return
	}
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "spider-sim: -reps must be at least 1")
		os.Exit(2)
	}
	if *pcapOut != "" && *reps > 1 {
		fmt.Fprintln(os.Stderr, "spider-sim: -pcap requires -reps 1")
		os.Exit(2)
	}
	if *traceO != "" && *reps > 1 {
		fmt.Fprintln(os.Stderr, "spider-sim: -trace-out requires -reps 1")
		os.Exit(2)
	}
	// Archiving wants the metrics snapshot even without -metrics-out;
	// attaching obs never perturbs results (the registry is passive).
	ospec := obsSpec{metrics: *metricsO != "" || *archO != "", trace: *traceO != ""}
	if *traceF != "" {
		ospec.filter = strings.Split(*traceF, ",")
	}
	dur := time.Duration(*minutes) * time.Minute
	start := time.Now()

	if *reps == 1 {
		r, err := runDrive(cfg, *city, *seed, *speed, *numAPs, dur, *pcapOut, *chaos, ospec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spider-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("Drive: %s, %d APs, %.1f m/s, %v simulated (%v wall)\n",
			*city, r.numAPs, r.speedMS, dur, time.Since(start).Round(time.Millisecond))
		fmt.Printf("Driver: %s\n\n", r.mode)
		report(r)
		if err := writeObs(*metricsO, *traceO, r.snap, r.tracer); err != nil {
			fmt.Fprintln(os.Stderr, "spider-sim:", err)
			os.Exit(1)
		}
		if *archO != "" {
			if err := writeDriveArchive(*archO, *seed, configFP, *chaos, []driveResult{r}); err != nil {
				fmt.Fprintln(os.Stderr, "spider-sim:", err)
				os.Exit(1)
			}
		}
		if r.checkerErr != nil {
			os.Exit(1)
		}
		return
	}

	// Each replication derives its world seed from (seed, config, rep):
	// distinct streams per rep, reproducible at any -workers value. The
	// fold runs after the sweep, over the index-ordered results, so both
	// the report and the merged metrics are worker-count independent.
	type accum struct {
		results []driveResult
		snaps   []obs.Snapshot
	}
	acc, err := sweep.Reduce(context.Background(), *workers, *reps,
		func(_ context.Context, rep int) (driveResult, error) {
			return runDrive(cfg, *city, sweep.TaskSeed(*seed, *config, rep), *speed, *numAPs, dur, "", *chaos, ospec)
		},
		accum{}, func(a accum, r driveResult) accum {
			a.results = append(a.results, r)
			if r.snap != nil {
				a.snaps = append(a.snaps, r.snap)
			}
			return a
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spider-sim:", err)
		os.Exit(1)
	}
	results := acc.results
	if *metricsO != "" {
		if err := obs.WriteMetricsFile(*metricsO, obs.MergeSnapshots(acc.snaps...)); err != nil {
			fmt.Fprintln(os.Stderr, "spider-sim:", err)
			os.Exit(1)
		}
	}
	if *archO != "" {
		if err := writeDriveArchive(*archO, *seed, configFP, *chaos, results); err != nil {
			fmt.Fprintln(os.Stderr, "spider-sim:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("Drive: %s, %d APs, %.1f m/s, %v simulated ×%d reps (%v wall, %d workers)\n",
		*city, results[0].numAPs, results[0].speedMS, dur, *reps,
		time.Since(start).Round(time.Millisecond), sweep.Workers(*workers))
	fmt.Printf("Driver: %s\n\n", results[0].mode)
	var tputs, conn []float64
	checkerFailed := false
	for i, r := range results {
		fmt.Printf("  rep %d (seed %d): %s, connectivity %s, %d connections, %d disruptions\n",
			i, r.seed, metrics.FormatKBps(r.throughputKBps), metrics.FormatPct(r.connectivity),
			len(r.conns), len(r.gaps))
		if r.checkerErr != nil {
			fmt.Printf("    CHECKER FAILED: %v\n", r.checkerErr)
			checkerFailed = true
		}
		tputs = append(tputs, r.throughputKBps)
		conn = append(conn, r.connectivity)
	}
	fmt.Printf("\n  avg throughput:   %s ± %s\n",
		metrics.FormatKBps(metrics.Mean(tputs)), metrics.FormatKBps(metrics.StdDev(tputs)))
	fmt.Printf("  connectivity:     %s ± %s\n",
		metrics.FormatPct(metrics.Mean(conn)), metrics.FormatPct(metrics.StdDev(conn)))
	if checkerFailed {
		os.Exit(1)
	}
}
