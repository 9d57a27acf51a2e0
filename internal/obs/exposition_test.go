package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestExpositionHostileHelp pins the HELP-escaping bug: a help string
// with a newline used to split into two lines, the second of which no
// scraper could parse.
func TestExpositionHostileHelp(t *testing.T) {
	r := NewRegistry()
	r.Counter("evil_help_total", "line one\nline two with \\backslash\\")
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	want := `# HELP evil_help_total line one\nline two with \\backslash\\` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("CheckExposition: %v", err)
	}
}

// TestExpositionHostileNames pins name sanitization: names that violate
// the exposition grammar must be rewritten onto it, not emitted
// verbatim.
func TestExpositionHostileNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("spider/joins-per.sec", "slashes, dashes and dots")
	r.Gauge("0leading_digit", "leading digit")
	r.Counter("", "empty name")
	r.Histogram("bad name{x=\"1\"}", "injection attempt", 1, 2)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"spider_joins_per_sec", "_0leading_digit", "bad_name_x__1__",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sanitized name %q missing from:\n%s", want, out)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("CheckExposition rejects sanitized output: %v\n%s", err, out)
	}
}

// TestExpositionNameCollisions pins the writer's answer to names that
// sanitize onto one exposition name, or onto a histogram's series:
// each later metric takes a free "_<n>" suffix instead of a second
// TYPE for one name.
func TestExpositionNameCollisions(t *testing.T) {
	r := NewRegistry()
	r.Counter("a-b", "sanitizes to a_b")
	r.Gauge("a_b", "already a_b")
	r.Histogram("h", "histogram", 1)
	r.Counter("h-count", "sanitizes onto h's _count series")
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"# TYPE a_b counter\n", "# TYPE a_b_2 gauge\n", "# TYPE h histogram\n", "# TYPE h_count_2 counter\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("%q missing from:\n%s", want, out)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("CheckExposition: %v\n%s", err, out)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"good_name:total": "good_name:total", // valid: unchanged
		"has-dash":        "has_dash",
		"7seconds":        "_7seconds",
		"":                "_",
		"ünïcode":         "__n__code", // per-byte sanitization
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
		if !ValidMetricName(SanitizeMetricName(in)) {
			t.Errorf("SanitizeMetricName(%q) still invalid", in)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	in := "a\"b\\c\nd"
	want := `a\"b\\c\nd`
	if got := EscapeLabelValue(in); got != want {
		t.Fatalf("EscapeLabelValue = %q, want %q", got, want)
	}
	if got := EscapeLabelValue("plain"); got != "plain" {
		t.Fatalf("EscapeLabelValue(plain) = %q", got)
	}
}

// TestCheckExposition exercises the strict parser both ways: the
// package's own output must pass, and classic exposition violations
// must fail with the offending line.
func TestCheckExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "a counter").v.Add(3)
	r.Gauge("g", "a gauge").Set(-1.5)
	h := r.Histogram("lat_seconds", "a histogram", 0.1, 1)
	h.Observe(0.05)
	h.Observe(5)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("own output rejected: %v\n%s", err, buf.String())
	}

	bad := map[string]string{
		"bad-name 1\n":                              "invalid metric name",
		"m{l=unquoted} 1\n":                         "not quoted",
		"m{l=\"open} 1\n":                           "unterminated",
		"m{l=\"bad\\q\"} 1\n":                       "illegal escape",
		"m{l=\"a\",l=\"b\"} 1\n":                    "duplicate label",
		"m notanumber\n":                            "unparseable sample value",
		"# TYPE m widget\nm 1\n":                    "unknown metric type",
		"# TYPE m counter\n# TYPE m counter\nm 1\n": "second TYPE",
		"m 1\n# TYPE m counter\nm 2\n":              "after its first sample",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n": "not cumulative",
		"# TYPE h histogram\nh_sum 1\nh_count 1\n":                                                "no +Inf bucket",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n":                       "!= count",
	}
	for doc, want := range bad {
		err := CheckExposition([]byte(doc))
		if err == nil {
			t.Errorf("CheckExposition accepted:\n%s", doc)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("CheckExposition(%q) = %v, want mention of %q", doc, err, want)
		}
	}
}
