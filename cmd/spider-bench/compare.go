package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload × metric comparison.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// verdict applies the paired-run rule to one metric. parent[i] and
// change[i] are the i-th pair; lower says whether lower is better; bound
// is the share of the parent's median the change may be worse by.
//
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile spread;
//   - unresolved: fewer than minPairs pairs, or the parent's spread is
//     wider than the bound, unless every change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unchanged otherwise.
//
// It also returns how many pairs the change won.
func verdict(parent, change []float64, lower bool, bound float64) (string, int) {
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	n := min(len(parent), len(change))
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if n < minPairs || len(parent) != len(change) {
		return unresolved, wins
	}
	pMed, cMed := quantile(parent, 0.5), quantile(change, 0.5)
	iqr := quantile(parent, 0.75) - quantile(parent, 0.25)
	gap := cMed - pMed
	if lower {
		gap = -gap
	}
	if 10*wins >= 9*n && gap > iqr {
		return improved, wins
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if iqr > bound*math.Abs(pMed) && !allBetter {
		return unresolved, wins
	}
	if -gap > bound*math.Abs(pMed) {
		return worse, wins
	}
	return unchanged, wins
}

// compareCheckouts runs the benchmark of two checkouts in minPairs
// alternating pairs, pair i on seed seed+i with the side that goes first
// alternating, and prints one row per workload × end-to-end metric.
// Bounds, metrics, run length and workloads come from the parent's
// BENCHMARK.json; only restricts the run to one workload when set.
func compareCheckouts(out io.Writer, parentDir, changeDir, only string, seed int64) error {
	raw, err := os.ReadFile(filepath.Join(parentDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Fprintf(out, "%-8s %-20s %14s %14s %14s %14s %5s  %s\n",
		"workload", "metric", "parent p50", "parent iqr", "change p50", "change iqr", "wins", "verdict")
	for _, wl := range spec.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		side := map[string]map[string][]float64{parentDir: {}, changeDir: {}}
		for i := 0; i < minPairs; i++ {
			order := []string{parentDir, changeDir}
			if i%2 == 1 {
				order[0], order[1] = changeDir, parentDir
			}
			for _, dir := range order {
				rep, err := runCheckout(dir, wl.Name, seed+int64(i), spec.RunSeconds)
				if err != nil {
					return err
				}
				for name, m := range rep.Metrics {
					side[dir][name] = append(side[dir][name], m.Value)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			p, c := side[parentDir][m.Name], side[changeDir][m.Name]
			v, wins := verdict(p, c, m.Better == "lower", m.Bound)
			fmt.Fprintf(out, "%-8s %-20s %14.6g %14.6g %14.6g %14.6g %2d/%-2d  %s\n",
				wl.Name, m.Name,
				quantile(p, 0.5), quantile(p, 0.75)-quantile(p, 0.25),
				quantile(c, 0.5), quantile(c, 0.75)-quantile(c, 0.25),
				wins, len(p), v)
		}
	}
	return nil
}

// runCheckout runs one untraced benchmark run in a checkout and returns
// its report; a run with failed ops is an error, since a gain does not
// count when ops fail.
func runCheckout(dir, workload string, seed int64, secs int) (report, error) {
	cmd := exec.Command("bash", "cmd/spider-bench/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(secs), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s: %s: %w", dir, workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s: %s: last line is not a report: %w", dir, workload, err)
	}
	if !rep.Correct || rep.Failed > 0 {
		return report{}, fmt.Errorf("%s: %s seed %d: incorrect run (%d of %d ops failed)", dir, workload, seed, rep.Failed, rep.Attempted)
	}
	return rep, nil
}
