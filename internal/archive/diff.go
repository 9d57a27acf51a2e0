package archive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Diff is one detected difference, anchored to the sub-measurement ID
// that changed — the unit CI failure messages name.
type Diff struct {
	ID    string // offending sub-measurement ("document" for header fields)
	Where string // section/field description
	A, B  string // rendered values ("∅" when the side lacks the element)
}

func (d Diff) String() string {
	return fmt.Sprintf("DIFF id=%s where=%s a=%s b=%s", d.ID, d.Where, d.A, d.B)
}

// maxDiffs bounds a report: a corrupted archive should fail loudly, not
// print a million rows.
const maxDiffs = 64

// Report is a byte-level comparison outcome.
type Report struct {
	Identical bool
	Diffs     []Diff
	Truncated bool // more diffs existed than the report holds
}

func (r *Report) add(d Diff) {
	if len(r.Diffs) < maxDiffs {
		r.Diffs = append(r.Diffs, d)
	} else {
		r.Truncated = true
	}
}

// DiffBytes compares two encoded archives. Byte-identical inputs short
// circuit; otherwise both documents are decoded and walked structurally
// so each difference is attributed to the sub-measurement ID that owns
// it. Same seed + same plan must yield Identical — this is the CI gate
// behind every determinism claim.
func DiffBytes(abytes, bbytes []byte) (*Report, error) {
	if bytes.Equal(abytes, bbytes) {
		return &Report{Identical: true}, nil
	}
	a, err := Decode(abytes)
	if err != nil {
		return nil, fmt.Errorf("archive A: %w", err)
	}
	b, err := Decode(bbytes)
	if err != nil {
		return nil, fmt.Errorf("archive B: %w", err)
	}
	rep := &Report{}
	diffHeader(rep, a, b)
	diffExperiments(rep, a, b)
	if len(rep.Diffs) == 0 {
		// Bytes differed but the canonical forms agree: one side was not
		// canonically encoded (e.g. hand-edited whitespace). Not identical
		// — the byte contract is the product — but say so precisely.
		rep.add(Diff{ID: "document", Where: "encoding", A: "non-canonical", B: "non-canonical"})
	}
	return rep, nil
}

func diffHeader(rep *Report, a, b *Archive) {
	hdr := []struct {
		name string
		av   string
		bv   string
	}{
		{"run_id", a.RunID, b.RunID},
		{"seed", fmt.Sprint(a.Seed), fmt.Sprint(b.Seed)},
		{"config_fp", a.ConfigFP, b.ConfigFP},
	}
	for _, h := range hdr {
		if h.av != h.bv {
			rep.add(Diff{ID: "document", Where: h.name, A: h.av, B: h.bv})
		}
	}
}

func diffExperiments(rep *Report, a, b *Archive) {
	byName := func(exps []Experiment) (map[string]*Experiment, []string) {
		m := make(map[string]*Experiment, len(exps))
		var order []string
		for i := range exps {
			if _, ok := m[exps[i].Name]; !ok {
				order = append(order, exps[i].Name)
			}
			m[exps[i].Name] = &exps[i]
		}
		return m, order
	}
	am, aorder := byName(a.Experiments)
	bm, border := byName(b.Experiments)
	for _, name := range aorder {
		ae := am[name]
		be := bm[name]
		if be == nil {
			rep.add(Diff{ID: ae.ID, Where: "experiment." + name, A: "present", B: "∅"})
			continue
		}
		diffExperiment(rep, ae, be)
	}
	for _, name := range border {
		if am[name] == nil {
			rep.add(Diff{ID: bm[name].ID, Where: "experiment." + name, A: "∅", B: "present"})
		}
	}
}

// element is one ID-carrying sub-measurement for the generic walk.
type element struct {
	id  string
	val any
}

func diffSection(rep *Report, section string, as, bs []element) {
	bm := make(map[string]any, len(bs))
	for _, e := range bs {
		bm[e.id] = e.val
	}
	seen := make(map[string]bool, len(as))
	for _, e := range as {
		seen[e.id] = true
		bv, ok := bm[e.id]
		if !ok {
			rep.add(Diff{ID: e.id, Where: section, A: renderElement(e.val), B: "∅"})
			continue
		}
		if !reflect.DeepEqual(e.val, bv) {
			where, av, bvs := firstFieldDiff(e.val, bv)
			rep.add(Diff{ID: e.id, Where: section + "." + where, A: av, B: bvs})
		}
	}
	for _, e := range bs {
		if !seen[e.id] {
			rep.add(Diff{ID: e.id, Where: section, A: "∅", B: renderElement(e.val)})
		}
	}
}

func diffExperiment(rep *Report, a, b *Experiment) {
	if a.ID != b.ID {
		rep.add(Diff{ID: a.ID, Where: "experiment." + a.Name + ".id", A: a.ID, B: b.ID})
	}
	if a.Chaos != b.Chaos {
		rep.add(Diff{ID: a.ID, Where: "experiment." + a.Name + ".chaos", A: a.Chaos, B: b.Chaos})
	}
	if !reflect.DeepEqual(a.Scenario, b.Scenario) {
		rep.add(Diff{ID: a.ID, Where: "experiment." + a.Name + ".scenario",
			A: renderElement(a.Scenario), B: renderElement(b.Scenario)})
	}
	wrap := func(n int, at func(int) element) []element {
		out := make([]element, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, at(i))
		}
		return out
	}
	diffSection(rep, "client",
		wrap(len(a.Clients), func(i int) element { return element{a.Clients[i].ID, a.Clients[i]} }),
		wrap(len(b.Clients), func(i int) element { return element{b.Clients[i].ID, b.Clients[i]} }))
	diffSection(rep, "fault",
		wrap(len(a.Faults), func(i int) element { return element{a.Faults[i].ID, a.Faults[i]} }),
		wrap(len(b.Faults), func(i int) element { return element{b.Faults[i].ID, b.Faults[i]} }))
	diffSection(rep, "metric",
		wrap(len(a.Metrics), func(i int) element { return element{a.Metrics[i].ID, a.Metrics[i]} }),
		wrap(len(b.Metrics), func(i int) element { return element{b.Metrics[i].ID, b.Metrics[i]} }))
	diffSection(rep, "span",
		wrap(len(a.Spans), func(i int) element { return element{a.Spans[i].ID, a.Spans[i]} }),
		wrap(len(b.Spans), func(i int) element { return element{b.Spans[i].ID, b.Spans[i]} }))
	diffSection(rep, "result",
		wrap(len(a.Results), func(i int) element { return element{a.Results[i].ID, a.Results[i]} }),
		wrap(len(b.Results), func(i int) element { return element{b.Results[i].ID, b.Results[i]} }))
}

// firstFieldDiff renders two unequal sub-measurements as canonical JSON
// and returns the first line where they diverge — good enough to name
// the field without a schema walk per type.
func firstFieldDiff(a, b any) (where, av, bv string) {
	aj, _ := json.MarshalIndent(a, "", "\t")
	bj, _ := json.MarshalIndent(b, "", "\t")
	al := strings.Split(string(aj), "\n")
	bl := strings.Split(string(bj), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			field := strings.TrimSpace(al[i])
			if j := strings.Index(field, "\":"); j > 0 {
				field = strings.Trim(field[:j+1], "\"")
			}
			return field, strings.TrimSpace(al[i]), strings.TrimSpace(bl[i])
		}
	}
	return "length", fmt.Sprintf("%d lines", len(al)), fmt.Sprintf("%d lines", len(bl))
}

func renderElement(v any) string {
	j, _ := json.Marshal(v)
	if len(j) > 80 {
		j = append(j[:77], []byte("…")...)
	}
	return string(j)
}

// StatOptions configure the statistical comparison.
type StatOptions struct {
	// DefaultTol is the relative tolerance applied to every field
	// without an explicit entry in Tol (default 0.25).
	DefaultTol float64
	// Tol holds per-field relative tolerances, keyed by the flattened
	// field name (e.g. "client.total_bytes").
	Tol map[string]float64
}

func (o StatOptions) tol(field string) float64 {
	if t, ok := o.Tol[field]; ok {
		return t
	}
	if o.DefaultTol > 0 {
		return o.DefaultTol
	}
	return 0.25
}

// StatField is one field's cross-archive distribution comparison.
type StatField struct {
	Field        string
	NA, NB       int
	MeanA, MeanB float64
	RelDelta     float64 // |meanA−meanB| / max(|meanA|,|meanB|)
	Tol          float64
	Flagged      bool
}

func (s StatField) String() string {
	verdict := "ok"
	if s.Flagged {
		verdict = "SHIFTED"
	}
	return fmt.Sprintf("STAT field=%s n=%d/%d mean=%.6g/%.6g rel=%.3f tol=%.3f %s",
		s.Field, s.NA, s.NB, s.MeanA, s.MeanB, s.RelDelta, s.Tol, verdict)
}

// DiffStat compares two archives statistically: numeric observations
// group by field across sub-measurements, and a field is flagged when
// its means differ by more than the field's relative tolerance. This is
// the cross-seed mode — sub-measurement IDs differ between seeds, so
// alignment is by field, not ID. Fields present on only one side are
// flagged outright (a vanished measurement family is a regression, not
// noise). Results sort by field name.
func DiffStat(a, b *Archive, opt StatOptions) []StatField {
	group := func(ar *Archive) map[string][]float64 {
		m := make(map[string][]float64)
		for _, o := range ar.Flatten() {
			m[o.Field] = append(m[o.Field], o.Num)
		}
		return m
	}
	ga, gb := group(a), group(b)
	fields := make(map[string]bool, len(ga)+len(gb))
	for f := range ga {
		fields[f] = true
	}
	for f := range gb {
		fields[f] = true
	}
	names := make([]string, 0, len(fields))
	for f := range fields {
		names = append(names, f)
	}
	sort.Strings(names)

	mean := func(vs []float64) float64 {
		if len(vs) == 0 {
			return math.NaN()
		}
		var s float64
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	var out []StatField
	for _, f := range names {
		va, vb := ga[f], gb[f]
		sf := StatField{Field: f, NA: len(va), NB: len(vb),
			MeanA: mean(va), MeanB: mean(vb), Tol: opt.tol(f)}
		switch {
		case len(va) == 0 || len(vb) == 0:
			sf.RelDelta = math.Inf(1)
			sf.Flagged = true
		default:
			denom := math.Max(math.Abs(sf.MeanA), math.Abs(sf.MeanB))
			if denom == 0 {
				sf.RelDelta = 0 // both means exactly zero
			} else {
				sf.RelDelta = math.Abs(sf.MeanA-sf.MeanB) / denom
			}
			sf.Flagged = sf.RelDelta > sf.Tol
		}
		out = append(out, sf)
	}
	return out
}
