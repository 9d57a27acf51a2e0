package main

import "testing"

func TestVerdict(t *testing.T) {
	// parent: ten runs of a metric around 100 with ~0.5% spread.
	parent := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	// noise: the same distribution, paired differently.
	noise := append(append([]float64(nil), parent[1:]...), parent[0])
	// eightWins: 20% better on eight pairs only.
	eightWins := scaled(0.8)
	eightWins[0], eightWins[1] = parent[0]*1.01, parent[1]*1.01
	// skewed: a parent whose quartile spread (25) is wider than a 10%
	// bound, with its median at its minimum.
	skewed := []float64{90, 90, 90, 90, 90, 90, 100, 120, 130, 140}
	flat := func(v float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v
		}
		return out
	}

	for _, tc := range []struct {
		name          string
		parent, chang []float64
		lower         bool
		bound         float64
		want          string
	}{
		{"clear win, lower is better", parent, scaled(0.8), true, 0.1, improved},
		{"clear win, higher is better", parent, scaled(1.2), false, 0.1, improved},
		{"noise only", parent, noise, true, 0.1, unchanged},
		{"regression beyond bound", parent, scaled(1.2), true, 0.1, worse},
		{"throughput regression beyond bound", parent, scaled(0.8), false, 0.1, worse},
		{"regression within bound", parent, scaled(1.05), true, 0.1, unchanged},
		{"gain on only 8 of 10 pairs", parent, eightWins, true, 0.1, unchanged},
		{"spread wider than bound", parent, noise, true, 0.001, unresolved},
		{"spread wider than bound, slightly better", skewed, flat(91), true, 0.1, unresolved},
		{"spread wider than bound, every change run better", skewed, flat(89), true, 0.1, unchanged},
		{"too few pairs", parent[:9], scaled(0.5)[:9], true, 0.1, unresolved},
		{"unpaired runs", parent, scaled(0.8)[:9], true, 0.1, unresolved},
	} {
		if got, _ := verdict(tc.parent, tc.chang, tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestVerdictCountsWins(t *testing.T) {
	p := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	c := []float64{0, 2, 4, 3, 5, 5, 8, 7, 9, 9} // better on pairs 0, 3, 5, 7, 9; ties on 1, 4, 8
	if _, wins := verdict(p, c, true, 0.1); wins != 5 {
		t.Errorf("wins = %d, want 5", wins)
	}
}
