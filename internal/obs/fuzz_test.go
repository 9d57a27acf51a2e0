package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzExposition holds both halves of the exposition contract. Whatever
// a registry holds (any metric names and help text, any values and
// bucket bounds), WritePrometheus's output must pass CheckExposition;
// and CheckExposition must turn arbitrary bytes into a verdict, never
// a panic. names carries up to three metric names separated by '|':
// a counter, a gauge and a histogram.
func FuzzExposition(f *testing.F) {
	f.Add([]byte("# TYPE a counter\na 1\n"), "joins_total|rssi_dbm|join_seconds", "help", uint64(3), 1.5, 0.1, 2.0, 0.5)
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"),
		"spider/joins-per.sec|0leading|bad name{x=\"1\"}", "line one\nline \\two", uint64(0), -1e308, 5.0, 5.0, 7.0)
	f.Add([]byte("x{a=\"\\q\"} NaN 12\n# HELP x \\z\n"), "a||", "", uint64(1<<63), 0.0, -0.0, 1e-9, -3.0)
	f.Fuzz(func(t *testing.T, data []byte, names, help string, n uint64, v, b1, b2, obs float64) {
		_ = CheckExposition(data) // any verdict, no panic

		parts := strings.SplitN(names, "|", 3)
		for len(parts) < 3 {
			parts = append(parts, "")
		}
		r := NewRegistry()
		r.Counter(parts[0], help).v.Add(n)
		if parts[1] != parts[0] {
			r.Gauge(parts[1], help).Set(v)
		}
		if parts[2] != parts[0] && parts[2] != parts[1] {
			r.Histogram(parts[2], help, b1, b2).Observe(obs)
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := CheckExposition(buf.Bytes()); err != nil {
			t.Fatalf("CheckExposition rejects the writer's output: %v\n%s", err, buf.Bytes())
		}
	})
}
