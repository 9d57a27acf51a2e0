package expt

import (
	"fmt"

	"spider/internal/archive"
)

// ConfigFP fingerprints the options that change results: scale and the
// chaos profile. Seed is carried separately in the run ID. Workers,
// Shards and Obs are deliberately excluded — results are invariant in
// them, and the archive byte-gate is what proves that claim, so folding
// them in would let two runs that must compare equal disagree on
// identity before a single measurement is read.
func ConfigFP(o Options) string {
	o = o.withDefaults()
	parts := []string{
		fmt.Sprintf("scale=%g", o.Scale),
		"chaos=" + o.Chaos,
	}
	// Admission staggering changes simulated bytes, so it must split the
	// fingerprint — but it appends conditionally, so every pre-stagger
	// run ID stays exactly what it was.
	if o.JoinSpread > 0 {
		parts = append(parts,
			fmt.Sprintf("join-spread=%s", o.JoinSpread),
			"join-ramp="+o.JoinRamp)
	}
	return archive.FP(parts...)
}

// NewArchive creates an empty archive documenting runs at these
// options. Append experiments with RunArchived.
func NewArchive(o Options) *archive.Archive {
	o = o.withDefaults()
	return archive.New(o.Seed, ConfigFP(o))
}

// RunArchived executes one experiment and appends its document to the
// archive.
//
// The city and metro experiments are archived in full — per-client ledgers, the
// merged fault ledger, merged metric snapshot and trace-span summary —
// because its observability is per-tile and therefore deterministic at
// any worker count. Every other experiment archives its rendered result
// (plus, for chaos, the raw fault ledger): those experiments may share
// one obs registry across concurrently-running sub-runs, where gauge
// values are last-writer-wins and so schedule-dependent; the rendered
// results are the deterministic surface.
func RunArchived(a *archive.Archive, id string, o Options) (fmt.Stringer, error) {
	o = o.withDefaults()
	// The experiment ID derives from the run ID and the experiment name
	// alone — not its position in the document — so archives holding
	// different experiment subsets still agree on shared IDs.
	expID := archive.SubID(a.RunID, "experiment/"+id, 0)

	if id == "city" || id == "metro" {
		run := cityRun
		if id == "metro" {
			run = metroRun
		}
		city, dur, err := run(o, true)
		if err != nil {
			return nil, err
		}
		fig := cityFigure(id, city, dur)
		exp := archive.CityExperiment(expID, id, o.Chaos, city, dur)
		rb := resultBuilder{expID: expID}
		rb.figure(fig)
		exp.Results = rb.out
		a.Experiments = append(a.Experiments, exp)
		return fig, nil
	}

	res, err := Run(id, o)
	if err != nil {
		return nil, err
	}
	exp := archive.Experiment{ID: expID, Name: id, Chaos: o.Chaos}
	rb := resultBuilder{expID: expID}
	switch r := res.(type) {
	case FigureSet:
		for _, f := range r.Figures() {
			rb.figure(f)
		}
		if f4, ok := r.(Fig4Result); ok {
			for i, v := range f4.DividingSpeeds {
				rb.num("fig4", fmt.Sprintf("dividing_speed[%d]", i), v)
			}
		}
	case Table:
		rb.table(r)
	case ChaosResult:
		exp.Faults = archive.FaultsFrom(expID, r.Stats)
		rb.table(r.Drives)
		rb.table(r.Faults)
		rb.str("chaos", "profile", r.Profile)
		rb.str("chaos", "checker", r.Checker)
		if r.Err != nil {
			rb.str("chaos", "checker_err", r.Err.Error())
		}
	default:
		rb.str(id, "text", res.String())
	}
	exp.Results = rb.out
	a.Experiments = append(a.Experiments, exp)
	return res, nil
}

// resultBuilder flattens rendered results into archive rows, numbering
// sub-measurement IDs across everything one experiment emits.
type resultBuilder struct {
	expID string
	out   []archive.Result
}

func (b *resultBuilder) add(r archive.Result) {
	r.ID = archive.SubID(b.expID, "result", len(b.out))
	b.out = append(b.out, r)
}

func (b *resultBuilder) num(name, key string, v float64) {
	b.add(archive.Result{Name: name, Key: key, Num: &v})
}

func (b *resultBuilder) str(name, key, v string) {
	b.add(archive.Result{Name: name, Key: key, Str: v})
}

// figure emits one row per point coordinate, keyed by series name and
// point index — keys are stable across seeds, which is what lets the
// statistical differ align cross-seed archives by field.
func (b *resultBuilder) figure(f Figure) {
	for _, s := range f.Series {
		for i, p := range s.Points {
			b.num(f.ID, fmt.Sprintf("%s[%d].x", s.Name, i), p.X)
			b.num(f.ID, fmt.Sprintf("%s[%d].y", s.Name, i), p.Y)
		}
	}
}

// table emits one row per cell, keyed by the row's first column and the
// column name. Cells whose prefix parses as a number (e.g. "85.3 KB/s")
// archive numerically so the statistical differ can compare them;
// everything else archives as a string.
func (b *resultBuilder) table(t Table) {
	for _, row := range t.Rows {
		if len(row) == 0 {
			continue
		}
		for ci := 1; ci < len(row) && ci < len(t.Columns); ci++ {
			key := row[0] + "." + t.Columns[ci]
			var v float64
			if _, err := fmt.Sscanf(row[ci], "%g", &v); err == nil {
				b.num(t.ID, key, v)
			} else {
				b.str(t.ID, key, row[ci])
			}
		}
	}
}
