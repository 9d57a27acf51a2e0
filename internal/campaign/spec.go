package campaign

import (
	"errors"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"spider/internal/archive"
	"spider/internal/expt"
)

// Spec is one experiment campaign: which experiments to run and at what
// options. It is the JSON body of the supervisor's POST /campaigns, the
// persisted identity of a campaign in its store, and what spider-exp's
// flags fill (Flags). Resolve is the only code that validates and
// fingerprints a campaign, so the two front-ends agree on identity by
// construction.
type Spec struct {
	// IDs is an experiment-id spec: a single id, a comma-separated
	// list, or "all" (expt.ResolveIDs grammar).
	IDs string `json:"ids"`
	// Seed drives every random stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Scale in (0,1] shrinks durations and trial counts (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Chaos selects the fault profile or timeline for the chaos and
	// city/metro experiments (empty = each experiment's default).
	Chaos string `json:"chaos,omitempty"`
	// Workers bounds the sweep fan-out inside each experiment
	// (0 = GOMAXPROCS). Never affects results.
	Workers int `json:"workers,omitempty"`
	// Shards bounds concurrent city tiles in the sharded experiments
	// (0/1 = sequential). Never affects results.
	Shards int `json:"shards,omitempty"`
	// JoinSpreadMS staggers client admission in the city/metro
	// experiments over this many simulated milliseconds (0 = legacy t=0
	// join storm); JoinRamp shapes the offsets ("uniform" or "exp"; a
	// missing ramp means uniform). Unlike Workers/Shards these change
	// simulated bytes, so they fold into the fingerprint when set.
	JoinSpreadMS int    `json:"join_spread_ms,omitempty"`
	JoinRamp     string `json:"join_ramp,omitempty"`
}

// Normalize fills the defaults and names a staggered campaign's ramp,
// so equal campaigns carry equal specs. Front-ends call it when a spec
// is submitted. Resolve does not canonicalize the ramp: a stored record
// written with a spread and no ramp keeps its recorded fingerprint.
func (sp Spec) Normalize() Spec {
	sp = sp.withDefaults()
	if sp.JoinSpreadMS > 0 && sp.JoinRamp == "" {
		sp.JoinRamp = "uniform"
	}
	return sp
}

func (sp Spec) withDefaults() Spec {
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Scale == 0 {
		sp.Scale = 1
	}
	return sp
}

// Resolve validates the whole spec before any experiment runs and
// returns the resolved id list, the experiment options, and the
// campaign fingerprint that state files and store records carry.
func (sp Spec) Resolve() (ids []string, opts expt.Options, fp string, err error) {
	sp = sp.withDefaults()
	ids, err = expt.ResolveIDs(sp.IDs)
	if err != nil {
		return nil, opts, "", err
	}
	opts = expt.Options{Seed: sp.Seed, Scale: sp.Scale, Workers: sp.Workers, Chaos: sp.Chaos, Shards: sp.Shards,
		JoinSpread: time.Duration(sp.JoinSpreadMS) * time.Millisecond, JoinRamp: sp.JoinRamp}
	if err := opts.Validate(); err != nil {
		return nil, expt.Options{}, "", err
	}
	fp = archive.FP(fmt.Sprintf("seed=%d", sp.Seed), expt.ConfigFP(opts),
		"ids="+strings.Join(ids, ","))
	return ids, opts, fp, nil
}

// Flags registers spider-exp's campaign flags on fs and returns the
// function that, after fs.Parse, reads them back as a normalized Spec.
// It refuses what a spec cannot carry: an explicit -scale 0 (a spec's
// zero scale is the default) and a -join-spread that is not a whole
// number of milliseconds.
func Flags(fs *flag.FlagSet) func() (Spec, error) {
	id := fs.String("id", "", "experiment id (fig2…fig14, table1…table4, ablation-…, or 'all')")
	seed := fs.Int64("seed", 1, "simulation seed")
	scale := fs.Float64("scale", 1.0, "experiment scale in (0,1]")
	workers := fs.Int("workers", runtime.NumCPU(), "worker goroutines for parallel sub-runs (results are identical at any count)")
	shards := fs.Int("shards", 1, "worker goroutines advancing city tiles in the sharded city experiment (results are identical at any count)")
	chaos := fs.String("chaos", "", "fault profile or timeline for the chaos experiment (mild, aggressive, or a script)")
	spread := fs.Duration("join-spread", 0, "stagger client admission in the city/metro experiments over this window (0 = legacy t=0 join storm)")
	ramp := fs.String("join-ramp", "uniform", "admission offset shape with -join-spread: uniform or exp")
	return func() (Spec, error) {
		if *scale == 0 {
			return Spec{}, errors.New("scale 0 outside (0,1]")
		}
		if *spread%time.Millisecond != 0 {
			return Spec{}, fmt.Errorf("join spread %v is not a whole number of milliseconds", *spread)
		}
		return Spec{IDs: *id, Seed: *seed, Scale: *scale, Chaos: *chaos, Workers: *workers, Shards: *shards,
			JoinSpreadMS: int(*spread / time.Millisecond), JoinRamp: *ramp}.Normalize(), nil
	}
}
