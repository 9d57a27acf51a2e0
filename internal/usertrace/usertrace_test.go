package usertrace

import (
	"testing"
	"time"

	"spider/internal/metrics"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultSpec(1))
	b := Generate(DefaultSpec(1))
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
	c := Generate(DefaultSpec(2))
	if len(c.Flows) == len(a.Flows) && len(a.Flows) > 0 && c.Flows[0] == a.Flows[0] {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceScalePlausible(t *testing.T) {
	tr := Generate(DefaultSpec(1))
	// 161 users over a day should produce a substantial flow count.
	if len(tr.Flows) < 5_000 {
		t.Fatalf("only %d flows for 161 users over a day", len(tr.Flows))
	}
	if tr.TotalBytes() <= 0 {
		t.Fatal("no bytes")
	}
}

func TestHTTPShareNearSpec(t *testing.T) {
	tr := Generate(DefaultSpec(1))
	if s := tr.HTTPShare(); s < 0.64 || s > 0.72 {
		t.Fatalf("HTTP share %.3f, want ~0.68", s)
	}
}

func TestDurationDistributionShape(t *testing.T) {
	tr := Generate(DefaultSpec(1))
	cdf := metrics.DurationsCDF(tr.Durations())
	med := cdf.Median()
	// Fig 13's x-range is 0–100 s with most mass early.
	if med < 1 || med > 15 {
		t.Fatalf("median duration %.1fs outside interactive band", med)
	}
	if p90 := cdf.Quantile(0.9); p90 < med*2 {
		t.Fatalf("no heavy tail: median %.1f p90 %.1f", med, p90)
	}
	if frac := cdf.At(100); frac < 0.9 {
		t.Fatalf("only %.2f of flows under 100s", frac)
	}
}

func TestGapDistributionShape(t *testing.T) {
	tr := Generate(DefaultSpec(1))
	gaps := tr.InterConnectionGaps()
	if len(gaps) < 1000 {
		t.Fatalf("only %d gaps", len(gaps))
	}
	cdf := metrics.DurationsCDF(gaps)
	med := cdf.Median()
	if med < 5 || med > 60 {
		t.Fatalf("median gap %.1fs outside plausible band", med)
	}
	// Fig 14's x-range is 0–300 s; most gaps fall inside it.
	if frac := cdf.At(300); frac < 0.8 {
		t.Fatalf("only %.2f of gaps under 300s", frac)
	}
}

func TestGapsNonNegativeAndFlowsInWindow(t *testing.T) {
	spec := DefaultSpec(3)
	tr := Generate(spec)
	for _, g := range tr.InterConnectionGaps() {
		if g <= 0 {
			t.Fatalf("non-positive gap %v", g)
		}
	}
	for _, f := range tr.Flows {
		if f.Start < 0 || f.Start > spec.Day {
			t.Fatalf("flow starts outside the day: %v", f.Start)
		}
		if f.Duration <= 0 || f.Bytes <= 0 {
			t.Fatalf("degenerate flow: %+v", f)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{Seed: 9}.withDefaults()
	if s.Users != 161 || s.Day != 24*time.Hour || s.HTTPShare != 0.68 {
		t.Fatalf("defaults: %+v", s)
	}
}
