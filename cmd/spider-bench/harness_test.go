package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func lastReport(t *testing.T, out *bytes.Buffer) report {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		t.Fatalf("last line is not a report: %v\n%s", err, out)
	}
	return rep
}

// declared reads the metrics BENCHMARK.json declares, name → unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics reports whether a report carries exactly the declared
// metrics, with the declared units.
func sameMetrics(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s metric %s: reported %+v, BENCHMARK.json declares unit %q", kind, name, m, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s is reported but not declared in BENCHMARK.json", kind, name)
		}
	}
}

// TestQuickWorkloads runs every workload at the quick scale untraced and
// traced. Both must pass the correctness gate, report exactly the metrics
// BENCHMARK.json declares, and pin the same counters and archive digest;
// the traced run's layer self times must add up to the CPU its profile
// recorded.
func TestQuickWorkloads(t *testing.T) {
	wantE2E, wantLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 7, budget: 2 * w.round, quick: true, workers: 2}
			var plainOut, tracedOut bytes.Buffer
			plain, err := run(&plainOut, w, o, "")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			traced, err := run(&tracedOut, w, o, dir)
			if err != nil {
				t.Fatal(err)
			}

			e2e, layered := lastReport(t, &plainOut), lastReport(t, &tracedOut)
			for _, rep := range []report{e2e, layered} {
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < w.prefix {
					t.Errorf("report: correct %v, %d of %d ops failed\n%s%s", rep.Correct, rep.Failed, rep.Attempted, &plainOut, &tracedOut)
				}
			}
			if plain.digest != traced.digest || plain.prefix != traced.prefix || plain.tiles != traced.tiles {
				t.Errorf("untraced and traced runs differ:\ndigest %s vs %s\ncounts %v vs %v", plain.digest, traced.digest, plain.prefix, traced.prefix)
			}
			if plain.replays < 2 || traced.replays < 2 {
				t.Errorf("replays: %d untraced, %d traced; want every input replayed", plain.replays, traced.replays)
			}
			if plain.prefix[cEvents] == 0 || plain.prefix[cDelivered] == 0 {
				t.Errorf("pinned prefix simulated nothing: %v", plain.prefix)
			}
			for name, m := range e2e.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s = %v, want a positive finite number", name, m.Value)
				}
			}
			sameMetrics(t, "end-to-end", e2e.Metrics, wantE2E)
			sameMetrics(t, "per-layer", layered.Metrics, wantLayer)

			files, err := filepath.Glob(filepath.Join(dir, "cpu", "*.pprof"))
			if err != nil || len(files) != traced.replays*w.inputs {
				t.Fatalf("profiles %v (%v), want one per instance", files, err)
			}
			var total int64
			for _, f := range files {
				raw, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				p, err := parseProfile(raw)
				if err != nil {
					t.Fatal(err)
				}
				_, n, err := cpuByLayer(p)
				if err != nil {
					t.Fatal(err)
				}
				total += n
			}
			var selfNs float64
			for _, l := range layers {
				selfNs += layered.Metrics[l+".self_ms"].Value * 1e6 * float64(traced.ops)
			}
			if math.Abs(selfNs-float64(total)) > 0.05*float64(total) {
				t.Errorf("layer self times sum to %.0f ns, profile total %d ns", selfNs, total)
			}
			for _, f := range []string{"spans.json", "layers.txt"} {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
