package expt

import (
	"fmt"
	"strings"
	"time"

	"spider/internal/fault"
	"spider/internal/metrics"
	"spider/internal/sweep"
)

func init() {
	register("chaos", func(o Options) (fmt.Stringer, error) {
		res, err := ChaosDrive(o)
		if err != nil {
			return nil, err
		}
		// A checker violation fails the run loudly — the whole point of
		// the experiment is that the driver survives the hostile city.
		return res, res.Err
	})
}

// ChaosResult is one hostile-city drive: the §4.3 metrics of the run
// side by side with a clean baseline, the per-class fault ledger, and
// the invariant checker's verdict.
type ChaosResult struct {
	Profile string
	Drives  Table // baseline vs chaos throughput/connectivity/joins
	Faults  Table // per-class injected/recovered/TTR
	// Stats is the raw per-class ledger behind Faults (canonical class
	// order) for tests and tooling.
	Stats   []fault.ClassStat
	Checker string
	// Err holds the checker failure; String renders it, tests assert on
	// it, and the chaos CLI exits nonzero on it.
	Err error
}

// String renders both tables and the checker verdict.
func (r ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos profile: %s\n", r.Profile)
	b.WriteString(r.Drives.String())
	b.WriteString(r.Faults.String())
	fmt.Fprintf(&b, "checker: %s\n", r.Checker)
	return b.String()
}

// chaosProfile resolves Options.Chaos — a profile name or a fault
// timeline script. Default: the aggressive profile (a chaos experiment
// without chaos proves nothing).
func chaosProfile(spec string) (fault.Config, fault.Timeline, string, error) {
	if spec == "" {
		spec = "aggressive"
	}
	return fault.Resolve(spec)
}

// ChaosDrive runs the hostile-city experiment: the same Amherst drive
// with the multi-channel multi-AP Spider configuration, once clean and
// once under the fault profile (Options.Chaos; "aggressive" by
// default), and reports what the faults cost and how the driver
// recovered. The run fails (Err set) if any invariant breaks, a timer
// leaks past teardown, or the driver deadlocks.
func ChaosDrive(o Options) (ChaosResult, error) {
	o = o.withDefaults()
	fcfg, tl, name, err := chaosProfile(o.Chaos)
	if err != nil {
		return ChaosResult{}, err
	}
	res := ChaosResult{
		Profile: name,
		Drives: Table{
			ID:      "chaos-drive",
			Title:   "Amherst drive (3ch multi-AP): clean vs hostile city",
			Columns: []string{"Run", "Throughput", "Connectivity", "Joins ok", "Joins failed", "Blacklisted"},
		},
		Faults: Table{
			ID:      "chaos-faults",
			Title:   "Fault ledger",
			Columns: []string{"Class", "Injected", "Recovered", "Mean TTR", "Max TTR"},
		},
	}
	dur := o.driveDur()
	// Run 0 is the clean baseline: the checker without faults.
	runs := fanOut(o, 2, func(i int) DriveRun {
		d := Drive{Seed: sweep.TaskSeed(o.Seed, "chaos", 0), Config: spiderConfig("3ch-multi"), Obs: o.Obs,
			Faults: &fault.Config{}}
		if i == 1 {
			d.Faults, d.Timeline = &fcfg, tl
		}
		r := d.Build()
		r.Run(dur)
		return r
	})

	row := func(label string, d DriveRun) []string {
		st := d.Client.Driver.Stats()
		fails := 0
		for _, j := range d.Client.Joins {
			if !j.Success {
				fails++
			}
		}
		return []string{
			label,
			metrics.FormatKBps(d.Client.Rec.ThroughputKBps(dur)),
			metrics.FormatPct(d.Client.Rec.Connectivity(dur)),
			fmt.Sprint(st.JoinSuccesses),
			fmt.Sprint(fails),
			fmt.Sprint(st.Blacklisted),
		}
	}
	res.Drives.Rows = [][]string{row("clean", runs[0]), row("chaos", runs[1])}

	res.Stats = runs[1].Chaos.Injector.Snapshot()
	for _, cs := range res.Stats {
		if cs.Injected == 0 && cs.Skipped == 0 {
			continue
		}
		res.Faults.Rows = append(res.Faults.Rows, []string{
			cs.Class,
			fmt.Sprint(cs.Injected),
			fmt.Sprint(cs.Recovered),
			cs.MeanTTR().Round(time.Millisecond).String(),
			cs.TTRMax.Round(time.Millisecond).String(),
		})
	}

	res.Checker = "clean"
	// Both runs' checkers must pass: chaos must not corrupt the driver,
	// and the clean run guards the harness itself.
	for i, d := range runs {
		if err := d.Chaos.Checker.Verify(); err != nil {
			res.Checker = err.Error()
			res.Err = fmt.Errorf("run %d: %w", i, err)
			break
		}
	}
	return res, nil
}
