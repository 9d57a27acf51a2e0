// Package expt regenerates every table and figure of the paper's
// evaluation from the simulation substrates: the analytical figures
// (Figs. 2–4) from internal/model, the measurement figures and tables
// (Figs. 5–12, Tables 1–4) from driven scenarios, and the usability
// comparison (Figs. 13–14) from the synthetic mesh trace.
//
// Every experiment is a pure function of Options (seed + scale), returns
// a structured result, and renders the same rows/series the paper
// reports. Absolute values depend on the simulated substrate; the
// harness targets the paper's shape claims, recorded side by side in
// EXPERIMENTS.md.
package expt

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spider/internal/fault"
	"spider/internal/obs"
	"spider/internal/plot"
)

// Options control experiment scale and reproducibility.
type Options struct {
	// Seed drives every random stream. Sub-runs (drives, replications,
	// parameter points) derive their streams via sweep.TaskSeed(Seed,
	// experimentID, index), never by sharing a *rand.Rand, so results
	// are identical at any worker count.
	Seed int64
	// Scale in (0,1] shrinks run durations and trial counts; 1 is the
	// paper-like scale, benches use ~0.1.
	Scale float64
	// Workers bounds how many independent sub-runs of one experiment
	// execute concurrently. 0 means runtime.GOMAXPROCS(0); 1 forces
	// sequential execution. The value never affects results, only
	// wall-clock time.
	Workers int
	// Chaos selects the fault profile (or timeline script) for the
	// chaos experiment; other experiments ignore it. Empty means the
	// experiment's default profile.
	Chaos string
	// Obs, when non-nil, is attached to every world the experiments
	// build. Counter and histogram totals accumulate across sub-runs
	// (commutative sums, so still deterministic at any worker count);
	// tracing concurrent sub-runs into one timeline is only meaningful
	// with Workers=1, which the CLI enforces for -trace-out.
	Obs *obs.Obs
	// Shards bounds how many city tiles advance concurrently in the
	// sharded city experiment (0/1 = sequential). Like Workers it never
	// affects results — the tile layout is fixed by the scenario — only
	// wall-clock time. Other experiments ignore it.
	Shards int
	// JoinSpread staggers client admission in the city and metro
	// experiments over this window (scenario.CityGridSpec.JoinSpread);
	// JoinRamp shapes the offsets ("uniform" or "exp"). Zero spread is
	// the legacy t=0 join storm. Unlike Workers/Shards, these change
	// simulated bytes, so they fold into ConfigFP — but only when set,
	// keeping legacy fingerprints stable. Other experiments ignore them.
	JoinSpread time.Duration
	JoinRamp   string
}

// DefaultOptions is the paper-like scale.
func DefaultOptions() Options { return Options{Seed: 1, Scale: 1} }

// Validate refuses options no experiment can honour, so every
// front-end bounces them before anything runs: a scale outside (0,1],
// negative worker or shard counts, a negative admission spread, a ramp
// other than uniform or exp, or a chaos spec fault.Resolve rejects.
// Zero Seed and Scale are defaults, not errors, and an empty JoinRamp
// means uniform.
func (o Options) Validate() error {
	switch {
	case !(o.Scale >= 0 && o.Scale <= 1):
		return fmt.Errorf("scale %g outside (0,1]", o.Scale)
	case o.Workers < 0:
		return fmt.Errorf("workers %d negative", o.Workers)
	case o.Shards < 0:
		return fmt.Errorf("shards %d negative", o.Shards)
	case o.JoinSpread < 0:
		return fmt.Errorf("join spread %v negative", o.JoinSpread)
	case o.JoinRamp != "" && o.JoinRamp != "uniform" && o.JoinRamp != "exp":
		return fmt.Errorf("join ramp %q (want uniform or exp)", o.JoinRamp)
	}
	if o.Chaos != "" {
		if _, _, _, err := fault.Resolve(o.Chaos); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	return o
}

// scaleDur shrinks a duration by the scale factor, with a floor.
func (o Options) scaleDur(d, min time.Duration) time.Duration {
	s := time.Duration(float64(d) * o.Scale)
	if s < min {
		s = min
	}
	return s
}

// scaleN shrinks a count by the scale factor, with a floor.
func (o Options) scaleN(n, min int) int {
	s := int(float64(n) * o.Scale)
	if s < min {
		s = min
	}
	return s
}

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is one labeled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced paper figure.
type Figure struct {
	ID     string // e.g. "fig2"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the figure as aligned text columns, one block per
// series — the harness's equivalent of the paper's plot.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(f.ID), f.Title)
	fmt.Fprintf(&b, "   x = %s, y = %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "-- %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "   %12.4g  %12.4g\n", p.X, p.Y)
		}
	}
	return b.String()
}

// Plot renders the figure as a terminal line chart.
func (f Figure) Plot(width, height int) string {
	return f.chart().Render(width, height)
}

// PlotSVG renders the figure as a standalone SVG document.
func (f Figure) PlotSVG(width, height int) string {
	return f.chart().RenderSVG(width, height)
}

func (f Figure) chart() plot.Chart {
	c := plot.Chart{Title: strings.ToUpper(f.ID) + ": " + f.Title, XLabel: f.XLabel, YLabel: f.YLabel}
	for _, s := range f.Series {
		ps := plot.Series{Name: s.Name}
		for _, p := range s.Points {
			ps.Points = append(ps.Points, plot.Point{X: p.X, Y: p.Y})
		}
		c.Series = append(c.Series, ps)
	}
	return c
}

// FigureSet is a result that holds figures, in render order.
type FigureSet interface{ Figures() []Figure }

// Figures makes a lone figure a FigureSet.
func (f Figure) Figures() []Figure { return []Figure{f} }

// SeriesByName finds a series (nil if absent).
func (f Figure) SeriesByName(name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

// Table is a reproduced paper table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)
	row := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Cell finds a row by its first column and returns the named column's
// value ("" if absent) — convenient for tests.
func (t Table) Cell(rowKey, col string) string {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		return ""
	}
	for _, r := range t.Rows {
		if len(r) > ci && r[0] == rowKey {
			return r[ci]
		}
	}
	return ""
}

// Runner regenerates one experiment.
type Runner func(Options) (fmt.Stringer, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs lists the registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id. A panic anywhere in the experiment
// — including inside a parallel sub-run, which the sweep engine has
// already annotated with its replication index and stack — is returned
// as an error, so one bad replication fails the run with a usable
// message instead of crashing the process.
func Run(id string, o Options) (res fmt.Stringer, err error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("expt: unknown experiment %q (have %v)", id, IDs())
	}
	defer func() {
		if p := recover(); p != nil {
			if perr, isErr := p.(error); isErr {
				err = fmt.Errorf("expt: %s: %w", id, perr)
			} else {
				err = fmt.Errorf("expt: %s: panic: %v", id, p)
			}
		}
	}()
	return r(o)
}
