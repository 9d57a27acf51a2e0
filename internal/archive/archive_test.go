package archive

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// synthetic builds a small fully-populated archive by hand — the unit
// tests' stand-in for a real run, exercising every section.
func synthetic() *Archive {
	a := New(7, FP("scale=1", "chaos="))
	expID := SubID(a.RunID, "experiment/test", 0)
	f := 42.5
	exp := Experiment{
		ID:    expID,
		Name:  "test",
		Chaos: "mild",
		Scenario: &Scenario{
			AreaWM: 3000, AreaHM: 3000, NumAPs: 60, NumClients: 2,
			Layout: "1 tile(s)", PlanFP: FP("plan"), DurationUS: 15_000_000,
		},
		Clients: []ClientLedger{
			{
				ID: SubID(expID, "client", 0), MAC: "02:00:00:00:00:01",
				TotalBytes: 1000,
				Bins:       []Bin{{Index: 0, Bytes: 600}, {Index: 2, Bytes: 400}},
				Joins:      []Join{{BSSID: "02:aa:00:00:00:01", OK: true, ElapsedUS: 900_000, AtUS: 1_000_000}},
				Switches:   3, AssocAttempts: 4, AssocSuccesses: 4,
				JoinSuccesses: 2, SegmentsSent: 80, BytesAcked: 990,
			},
			{
				ID: SubID(expID, "client", 1), MAC: "02:00:00:00:00:02",
				TotalBytes: 500, DHCPFailures: 1,
			},
		},
		Faults: []FaultClass{
			{ID: SubID(expID, "fault", 0), Class: "ap_freeze", Injected: 3, Recovered: 2, TTRTotalUS: 2_500_000, TTRMaxUS: 1_500_000},
		},
		Metrics: []Metric{
			{ID: SubID(expID, "metric", 0), Name: "spider_switches_total", Kind: "counter", Value: 3},
			{ID: SubID(expID, "metric", 1), Name: "spider_join_seconds", Kind: "histogram",
				Sum: 1.8, Count: 2, Bounds: []float64{0.1, 1}, Buckets: []uint64{0, 1, 1}},
		},
		Spans: []SpanSummary{
			{ID: SubID(expID, "span", 0), Cat: "driver", Name: "join", Count: 2, TotalDurUS: 1_800_000},
		},
		Results: []Result{
			{ID: SubID(expID, "result", 0), Name: "drive", Key: "throughput_KBps", Num: &f},
			{ID: SubID(expID, "result", 1), Name: "drive", Key: "verdict", Str: "clean"},
		},
	}
	a.Experiments = append(a.Experiments, exp)
	return a
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := synthetic()
	enc := a.Encode()
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip changed the document:\n a = %+v\ngot = %+v", a, got)
	}
	if re := got.Encode(); !bytes.Equal(enc, re) {
		t.Fatalf("re-encode not byte-stable:\n%s\nvs\n%s", enc, re)
	}
	if enc[len(enc)-1] != '\n' {
		t.Fatal("canonical encoding must end with one newline")
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := synthetic().Encode()
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "eof"},
		{"garbage", []byte("not json"), "invalid"},
		{"wrong format", bytes.Replace(valid, []byte(`"spider-archive"`), []byte(`"other"`), 1), "format"},
		{"future version", bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 2`), 1), "version"},
		{"unknown field", bytes.Replace(valid, []byte(`"seed"`), []byte(`"sneed"`), 1), "unknown field"},
		{"trailing data", append(append([]byte(nil), valid...), []byte("{}")...), "trailing data"},
		{"trailing garbage", append(append([]byte(nil), valid...), []byte("xx")...), "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(c.in)
			if err == nil {
				t.Fatalf("Decode accepted %s input", c.name)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestIDsDeterministic(t *testing.T) {
	if RunID(7, "abc") != RunID(7, "abc") {
		t.Fatal("RunID is not a pure function")
	}
	if RunID(7, "abc") == RunID(8, "abc") || RunID(7, "abc") == RunID(7, "abd") {
		t.Fatal("RunID ignores part of the plan identity")
	}
	root := RunID(7, "abc")
	seen := map[string]string{}
	for _, section := range []string{"client", "fault", "metric"} {
		for i := 0; i < 50; i++ {
			id := SubID(root, section, i)
			if len(id) != 16 {
				t.Fatalf("SubID %q is not 16 hex chars", id)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("SubID collision: %s/%d and %s", section, i, prev)
			}
			seen[id] = section
		}
	}
	if SubID(root, "client", 0) != SubID(root, "client", 0) {
		t.Fatal("SubID is not a pure function")
	}
}

// The fingerprint must be sensitive to part BOUNDARIES, not just the
// concatenated bytes — otherwise ("ab","c") and ("a","bc") collide and
// two different configs could claim the same identity.
func TestFingerprintLengthPrefixed(t *testing.T) {
	if FP("ab", "c") == FP("a", "bc") {
		t.Fatal("FP collides across part boundaries")
	}
	if FP("x") == FP("x", "") {
		t.Fatal("FP ignores empty trailing parts")
	}
}

func TestFlatten(t *testing.T) {
	a := synthetic()
	rows := a.Flatten()
	byField := map[string]Observation{}
	for _, o := range rows {
		byField[o.Field] = o
	}
	checks := map[string]float64{
		"experiment.test.clients":        2,
		"fault.ap_freeze.injected":       3,
		"metric.spider_switches_total":   3,
		"metric.spider_join_seconds.sum": 1.8,
		"span.driver.join.count":         2,
		"result.drive.throughput_KBps":   42.5,
	}
	for field, want := range checks {
		o, ok := byField[field]
		if !ok {
			t.Fatalf("flatten missing field %q (have %d rows)", field, len(rows))
		}
		if o.Num != want {
			t.Fatalf("field %q = %+v, want %g", field, o, want)
		}
	}
	// Per-client rows: one per scalar per client, in ledger order.
	var totals []float64
	for _, o := range rows {
		if o.Field == "client.total_bytes" {
			totals = append(totals, o.Num)
		}
	}
	var want []float64
	for _, c := range a.Experiments[0].Clients {
		want = append(want, float64(c.TotalBytes))
	}
	if !slices.Equal(totals, want) || want[0] != 1000 {
		t.Fatalf("client.total_bytes rows = %v, want %v", totals, want)
	}
	// A string result (the synthetic archive's drive verdict) has no
	// numeric value to compare, so it yields no row.
	if o, ok := byField["result.drive.verdict"]; ok {
		t.Fatalf("string result flattened as %+v", o)
	}
}
