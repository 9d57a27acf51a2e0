// Command spider-bench is the simulator's benchmark: the four canonical
// runs (the paper's drive, a sharded city, the metro join storm and the
// metro steady state), each measured end to end and split per layer.
//
// Usage, from the root of a checkout:
//
//	bash cmd/spider-bench/run.sh --workload city --seed 1 --seconds 10 --trace 0
//	bash cmd/spider-bench/run.sh --workload city --seed 1 --seconds 10 --trace 1
//	spider-bench -compare <parent-checkout> <change-checkout>
//
// A run prints a human-readable report and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones, from an untraced run. With -trace 1 they
// are the per-layer ones: the run is repeated with a CPU profile on, and
// cpu/*.pprof, spans.json and layers.txt are written under -trace-dir.
// README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: drive, city, storm or steady")
		seed     = flag.Int64("seed", 1, "workload seed")
		secs     = flag.Float64("seconds", 10, "run length: as much work as takes this many seconds of op time on the reference machine")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceDir = flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory a traced run writes its files to, one subdirectory per workload")
		shards   = flag.Int("shards", runtime.NumCPU(), "tile workers for the city workloads")
		cmp      = flag.Bool("compare", false, "compare two checkouts: -compare <parent-dir> <change-dir>")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "spider-bench: -compare takes <parent-dir> <change-dir>")
			os.Exit(2)
		}
		if err := compareCheckouts(os.Stdout, flag.Arg(0), flag.Arg(1), *name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "spider-bench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *secs < 0 || *shards < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "spider-bench: need -workload drive|city|storm|steady, -trace 0|1, -seconds >= 0 and -shards >= 1")
		flag.Usage()
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		budget:  time.Duration(*secs * float64(time.Second)),
		workers: *shards,
	}
	dir := ""
	if *trace == 1 {
		dir = filepath.Join(*traceDir, w.name)
	}
	if _, err := run(os.Stdout, w, o, dir); err != nil {
		fmt.Fprintln(os.Stderr, "spider-bench:", err)
		os.Exit(1)
	}
}

// report is the JSON object a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload and prints its report. With traceDir empty
// it is the untraced run and reports the end-to-end metrics. Otherwise it
// runs the workload untraced and then traced, checks that both produced
// the same counters and archive digest, writes the trace files to
// traceDir and reports the per-layer metrics.
func run(out io.Writer, w workload, o options, traceDir string) (*result, error) {
	plain, err := measure(w, o)
	if err != nil {
		return nil, err
	}
	if traceDir == "" {
		rep := report{Correct: plain.failed == 0, Attempted: plain.ops, Failed: plain.failed, Metrics: plain.endToEnd()}
		printReport(out, w, o, plain, rep)
		return plain, nil
	}

	o.traced = true
	res, err := measure(w, o)
	if err != nil {
		return nil, err
	}
	cpu := map[string]int64{}
	var total int64
	for _, raw := range res.profiles {
		prof, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		by, t, err := cpuByLayer(prof)
		if err != nil {
			return nil, err
		}
		for l, ns := range by {
			cpu[l] += ns
		}
		total += t
	}
	rep := report{
		Correct:   plain.failed+res.failed == 0,
		Attempted: plain.ops + res.ops,
		Failed:    plain.failed + res.failed,
		Metrics:   res.perLayer(cpu, plain.simRate()/res.simRate()),
	}
	if plain.digest != res.digest || plain.prefix != res.prefix || plain.total != res.total || plain.tiles != res.tiles {
		rep.Correct = false
		fmt.Fprintf(out, "MISMATCH: traced and untraced runs differ: digest %s vs %s, pinned counters %v vs %v\n",
			res.digest, plain.digest, res.prefix, plain.prefix)
	}
	if err := writeTrace(traceDir, res, rep.Metrics, total); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace files in %s; profile total %.0f ms CPU\n", traceDir, float64(total)/1e6)
	printReport(out, w, o, res, rep)
	return res, nil
}

func printReport(out io.Writer, w workload, o options, res *result, rep report) {
	fmt.Fprintf(out, "spider-bench %s: seed %d, %d ops: %d input(s) × %d replay(s), %.1f s simulated; nproc %d, GOMAXPROCS %d, shard workers %d, %s\n",
		w.name, o.seed, res.ops, w.inputs, res.replays, res.virtual.Seconds(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), o.workers, runtime.Version())
	fmt.Fprintf(out, "pinned prefix: %d op(s), %d archive(s), %d bytes, sha256 %s\n",
		res.prefixOps, res.archives, res.archiveBytes, res.digest)
	fmt.Fprintf(out, "error_rate %g (%d of %d ops failed)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	fmt.Fprint(out, formatMetrics(rep.Metrics))
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // every metric is a finite number
	}
	fmt.Fprintf(out, "%s\n", line)
}

func formatMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	return b.String()
}

// writeTrace writes the traced run's CPU profiles (cpu/NNNN.pprof, one
// per instance; go tool pprof merges them), its spans as a Chrome trace,
// and the per-layer table.
func writeTrace(dir string, res *result, m map[string]metric, totalNs int64) error {
	if err := os.RemoveAll(filepath.Join(dir, "cpu")); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "cpu"), 0o755); err != nil {
		return err
	}
	var errs []error
	for i, p := range res.profiles {
		errs = append(errs, os.WriteFile(filepath.Join(dir, "cpu", fmt.Sprintf("%04d.pprof", i)), p, 0o644))
	}
	var spans strings.Builder
	if err := res.spans.writeChrome(&spans); err != nil {
		return err
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-16s %12s %8s\n", "layer", "self ms/op", "share")
	for _, l := range layers {
		v := m[l+".self_ms"].Value
		fmt.Fprintf(&table, "%-16s %12.3f %7.1f%%\n", l, v, 100*v*float64(res.ops)*1e6/float64(max(totalNs, 1)))
	}
	table.WriteString("\n" + formatMetrics(m))
	return errors.Join(append(errs,
		os.WriteFile(filepath.Join(dir, "spans.json"), []byte(spans.String()), 0o644),
		os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table.String()), 0o644),
	)...)
}
