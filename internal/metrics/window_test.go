package metrics

import (
	"math"
	"testing"
	"time"
)

// Regression: windows that are not a multiple of the bin width used to
// truncate away the trailing partial bin (`window / bin`), biasing
// connectivity upward or downward and silently dropping bytes delivered
// in the final half-second of a run from the run extraction.
func TestPartialWindowBinAccounting(t *testing.T) {
	r := NewRecorder(time.Second)
	// Busy bins 0 and 10; bin 10 only exists because of the partial tail.
	r.Add(500*time.Millisecond, 1000)
	r.Add(10200*time.Millisecond, 2000)
	window := 10500 * time.Millisecond

	// 11 bins: 10 whole plus the clipped 0.5 s tail.
	if got := r.Connectivity(window); math.Abs(got-2.0/11) > 1e-12 {
		t.Fatalf("connectivity = %v, want 2/11 (trailing partial bin counted)", got)
	}

	conns := r.Connections(window)
	want := []time.Duration{time.Second, 500 * time.Millisecond}
	if len(conns) != len(want) {
		t.Fatalf("connections = %v, want %v", conns, want)
	}
	for i := range want {
		if conns[i] != want[i] {
			t.Fatalf("connections[%d] = %v, want %v (trailing bin clipped to window)", i, conns[i], want[i])
		}
	}

	gaps := r.Disruptions(window)
	if len(gaps) != 1 || gaps[0] != 9*time.Second {
		t.Fatalf("disruptions = %v, want [9s]", gaps)
	}

	// Instantaneous rate of the partial bin uses its clipped width:
	// 2000 B over 0.5 s = 4 KB/s, not 2 KB/s.
	rates := r.InstantaneousKBps(window)
	if len(rates) != 2 || math.Abs(rates[0]-1.0) > 1e-12 || math.Abs(rates[1]-4.0) > 1e-12 {
		t.Fatalf("instantaneous = %v, want [1, 4]", rates)
	}
}
