package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"spider/internal/geo"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"own frame", []string{"spider/internal/radio.(*Medium).deliver", "spider/internal/sim.(*Kernel).Run"}, "radio"},
		{"map helper charged to caller", []string{"runtime.mapaccess2", "spider/internal/core.(*Driver).tick", "spider/internal/sim.(*Kernel).Run"}, "core"},
		{"inlined closure", []string{"spider/internal/shard.(*City).Run.func1", "main.main"}, "shard"},
		{"allocator below first simulator frame", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "spider/internal/wifi.(*Pool).Data", "spider/internal/mac.(*AP).beacon"}, "runtime.alloc"},
		{"allocator above first simulator frame", []string{"spider/internal/geo.(*Route).PointAt", "runtime.growslice", "main.main"}, "geo"},
		{"mark assist inside a simulator call", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "spider/internal/radio.(*Medium).deliver"}, "runtime.gc"},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{"sweeper", []string{"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{"package outside the table", []string{"spider/internal/metrics.(*Recorder).Add", "spider/internal/scenario.(*Client).downlink"}, "other"},
		{"harness code", []string{"crypto/sha256.block", "main.measure"}, "other"},
		{"harness allocation", []string{"runtime.mallocgc", "main.measure"}, "runtime.alloc"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{"empty stack", nil, "runtime.sched"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf(%q) = %q, want %q", tc.name, tc.stack, got, tc.want)
		}
	}
}

// busyGeo spins in the geo package for at least d of wall time.
func busyGeo(d time.Duration) float64 {
	m := &geo.RouteMobility{Route: geo.RectLoop(1200, 400), SpeedMS: 10, Loop: true}
	var sink float64
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 20000; i++ {
			sink += m.PositionAt(time.Duration(i) * time.Millisecond).X
		}
	}
	return sink
}

// TestProfileOfKnownBusyFunction records a real CPU profile of a loop in
// the geo package, under a pprof label, and reads it back: the samples
// must land in geo, carry the label, and the layer totals must add up to
// the profile's total.
func TestProfileOfKnownBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	var sink float64
	pprof.Do(context.Background(), pprof.Labels("phase", "busy"), func(context.Context) {
		sink = busyGeo(600 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	if math.IsNaN(sink) {
		t.Fatal("unreachable: keeps the loop alive")
	}

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	by, total, err := cpuByLayer(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 20 {
		t.Skipf("only %d samples; machine too loaded to judge", len(p.samples))
	}
	var sum, labeled int64
	for _, l := range layers {
		sum += by[l]
	}
	if d := math.Abs(float64(sum - total)); d > 0.01*float64(total) {
		t.Errorf("layer totals sum to %d ns, profile total is %d ns", sum, total)
	}
	if share := float64(by["geo"]) / float64(total); share < 0.5 {
		t.Errorf("geo holds %.0f%% of the profile, want most of it (by layer: %v)", 100*share, by)
	}
	for _, s := range p.samples {
		if s.labels["phase"] == "busy" {
			labeled += s.values[len(s.values)-1]
		}
	}
	if labeled < by["geo"]/2 {
		t.Errorf("only %d of %d geo ns carry the phase=busy label", labeled, by["geo"])
	}
}

func TestParseProfileRejectsCorruptInput(t *testing.T) {
	for _, in := range [][]byte{
		{0x12, 0x05, 0x01},       // sample field longer than the input
		{0x10, 0xff, 0xff, 0xff}, // unterminated varint
		{0x1f, 0x8b, 0x00},       // truncated gzip header
		{0x0b},                   // unsupported wire type
	} {
		if _, err := parseProfile(in); err == nil {
			t.Errorf("parseProfile(% x) succeeded, want an error", in)
		}
	}
}
