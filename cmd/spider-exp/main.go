// Command spider-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	spider-exp -list
//	spider-exp -id table2 [-seed 1] [-scale 1.0]
//	spider-exp -id fig2,fig3 -scale 0.25
//	spider-exp -id all -scale 0.25 -archive-out run.json -resume run.campaign
//
// Scale 1.0 runs paper-like durations (a 40-minute drive per
// configuration); smaller scales shrink durations and trial counts
// proportionally. Output is the same rows/series the paper reports.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spider/internal/archive"
	"spider/internal/campaign"
	"spider/internal/expt"
	"spider/internal/obs"
	"spider/internal/prof"
	"spider/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command behind main: it parses args, runs, and returns the
// process exit code. Every input a campaign spec refuses exits 2 before
// any experiment runs.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("spider-exp", flag.ContinueOnError)
	campaignSpec := campaign.Flags(fs)
	var (
		list     = fs.Bool("list", false, "list experiment ids and exit")
		plotOut  = fs.Bool("plot", false, "render figures as terminal charts instead of data columns")
		svgDir   = fs.String("svg", "", "also write each figure as an SVG into this directory")
		csvDir   = fs.String("csv", "", "also write each figure's series as CSV into this directory")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		metricsO = fs.String("metrics-out", "", "write Prometheus-format metrics (accumulated across all runs) to this file")
		traceO   = fs.String("trace-out", "", "write the event trace to this file: .jsonl for JSONL, else Chrome trace JSON (forces -workers 1)")
		traceF   = fs.String("trace-filter", "", "comma-separated category prefixes to trace (empty = all)")
		archO    = fs.String("archive-out", "", "write a run archive to this file (experiments run sequentially in id order; byte-identical at any -workers/-shards)")
		resumeO  = fs.String("resume", "", "campaign state file: skip experiments it records as complete, persist each new one as it finishes (requires -archive-out)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err any) int {
		fmt.Fprintln(os.Stderr, "spider-exp:", err)
		return code
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(2, err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "spider-exp:", err)
		}
	}()

	if *list {
		for _, e := range expt.IDs() {
			fmt.Fprintln(stdout, e)
		}
		return 0
	}
	sp, err := campaignSpec()
	if err != nil {
		return fail(2, err)
	}
	if sp.IDs == "" {
		return fail(2, "-id required (or -list); e.g. -id table2")
	}
	if *traceO != "" {
		// A trace of concurrently interleaved worlds is unreadable and
		// nondeterministic; tracing serializes the run.
		sp.Workers = 1
	}
	// Unknown or duplicate ids, and every option a campaign spec
	// refuses, fail here, before any experiment runs — a typo must not
	// cost a partial campaign.
	ids, opts, campFP, err := sp.Resolve()
	if err != nil {
		return fail(2, err)
	}
	var o *obs.Obs
	if *metricsO != "" || *traceO != "" {
		o = obs.New(0)
		if *traceF != "" {
			o.Tracer.SetFilter(strings.Split(*traceF, ",")...)
		}
	}
	opts.Obs = o
	// Experiments are independent worlds on independent kernels, so a
	// multi-experiment run fans out on the sweep engine; the -workers
	// budget covers the whole process (each experiment runs its sub-runs
	// sequentially here, since the fan-out across experiments already
	// fills the pool). Results print in id order regardless of
	// completion order.
	type outcome struct {
		res     fmt.Stringer
		elapsed time.Duration
	}
	perExpt := opts
	exptWorkers := opts.Workers
	if len(ids) > 1 {
		perExpt.Workers = 1
	}
	var arch *archive.Archive
	if *archO != "" {
		// The archive is one document in id order, so the fan-out across
		// experiments goes sequential and each experiment gets the full
		// worker budget back — results are worker-invariant either way.
		arch = expt.NewArchive(opts)
		exptWorkers = 1
		perExpt.Workers = opts.Workers
	}
	var camp *campaignState
	if *resumeO != "" {
		if arch == nil {
			return fail(2, "-resume requires -archive-out (the archive is what a campaign resumes)")
		}
		camp, err = loadCampaign(*resumeO, campFP)
		if err != nil {
			return fail(1, err)
		}
		if camp.Archive != nil {
			// Continue the interrupted run's document: already-archived
			// experiments keep their bytes, new ones append in id order.
			arch = camp.Archive
			fmt.Fprintf(stdout, "   resuming campaign from %s: %d of %d experiments already archived\n",
				*resumeO, len(camp.Completed), len(ids))
		}
	}
	outs, err := sweep.Map(context.Background(), exptWorkers, ids,
		func(_ context.Context, _ int, e string) (outcome, error) {
			start := time.Now()
			var res fmt.Stringer
			var err error
			switch {
			case camp != nil && camp.Done(e):
				res = skippedResult(e)
			case arch != nil:
				res, err = expt.RunArchived(arch, e, perExpt)
				if err == nil && camp != nil {
					camp.MarkDone(e)
					camp.Archive = arch
					err = camp.save(*resumeO)
				}
			default:
				res, err = expt.Run(e, perExpt)
			}
			return outcome{res: res, elapsed: time.Since(start)}, err
		})
	if err != nil {
		return fail(1, err)
	}
	for i, e := range ids {
		var figs []expt.Figure
		if set, ok := outs[i].res.(expt.FigureSet); ok {
			figs = set.Figures()
		}
		if *plotOut && len(figs) > 0 {
			for _, f := range figs {
				fmt.Fprintln(stdout, f.Plot(72, 18))
			}
		} else {
			fmt.Fprintln(stdout, outs[i].res)
		}
		files := fileFigures(figs)
		if err := writeFigures(stdout, *svgDir, ".svg", files, func(f expt.Figure) string { return f.PlotSVG(640, 360) }); err != nil {
			return fail(1, err)
		}
		if err := writeFigures(stdout, *csvDir, ".csv", files, figureCSV); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "   [%s regenerated in %v at scale %.2f, seed %d]\n\n",
			e, outs[i].elapsed.Round(time.Millisecond), opts.Scale, opts.Seed)
	}
	if arch != nil {
		if err := os.WriteFile(*archO, arch.Encode(), 0o644); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "   wrote %s (run %s, %d experiments)\n", *archO, arch.RunID, len(arch.Experiments))
	}
	if *metricsO != "" {
		if err := obs.WriteMetricsFile(*metricsO, o.Reg.Snapshot()); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "   wrote %s\n", *metricsO)
	}
	if *traceO != "" {
		if err := obs.WriteTraceFile(*traceO, o.Tracer); err != nil {
			return fail(1, err)
		}
		if d := o.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "spider-exp: trace ring wrapped; oldest %d events dropped (narrow with -trace-filter)\n", d)
		}
		fmt.Fprintf(stdout, "   wrote %s\n", *traceO)
	}
	return 0
}

// fileFigures returns the figures as their files name them: an ID
// repeated within one result (Fig 4's scenarios) takes -1, -2, …
// suffixes.
func fileFigures(figs []expt.Figure) []expt.Figure {
	per := map[string]int{}
	for _, f := range figs {
		per[f.ID]++
	}
	out := make([]expt.Figure, len(figs))
	seen := map[string]int{}
	for i, f := range figs {
		if per[f.ID] > 1 {
			seen[f.ID]++
			f.ID = fmt.Sprintf("%s-%d", f.ID, seen[f.ID])
		}
		out[i] = f
	}
	return out
}

// writeFigures writes each figure into dir as <id><ext>, rendered by
// render; an empty dir writes nothing.
func writeFigures(stdout io.Writer, dir, ext string, figs []expt.Figure, render func(expt.Figure) string) error {
	if dir == "" || len(figs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range figs {
		path := filepath.Join(dir, f.ID+ext)
		if err := os.WriteFile(path, []byte(render(f)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "   wrote %s\n", path)
	}
	return nil
}

// figureCSV renders a figure's series as CSV, one (series, x, y) row
// per point.
func figureCSV(f expt.Figure) string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, sr := range f.Series {
		for _, p := range sr.Points {
			fmt.Fprintf(&b, "%q,%g,%g\n", sr.Name, p.X, p.Y)
		}
	}
	return b.String()
}
