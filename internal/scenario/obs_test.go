package scenario

// Observability equivalence and export validity. The obs layer's
// contract is that attaching it never perturbs a run: it draws no RNG,
// schedules no kernel events, and only reads or counts. The fingerprint
// suite proves it byte-for-byte; the export tests prove the collected
// data is well-formed Prometheus text and Chrome trace JSON; the
// two-worker suite proves no scenario code leaks onto the global
// math/rand (concurrent worlds would perturb each other's draws).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/fault"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/sweep"
)

// obsFingerprint mirrors chaosFingerprint but optionally attaches the
// full observability stack (registry + tracer) before the drive.
func obsFingerprint(seed int64, withObs bool) (string, *obs.Obs) {
	spec := AmherstDrive(seed)
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	rc.Loss = 0.08
	rc.EdgeStart = 0.55
	spec.Radio = rc
	world, mob := spec.Build()
	var o *obs.Obs
	if withObs {
		o = obs.New(0)
		world.AttachObs(o)
	}
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	client := world.AddClient(cfg, mob)
	const dur = 4 * time.Minute
	world.Run(dur)

	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d\n", seed)
	fmt.Fprintf(&b, "bytes=%d\n", client.Rec.TotalBytes())
	fmt.Fprintf(&b, "throughput=%.6f\n", client.Rec.ThroughputKBps(dur))
	fmt.Fprintf(&b, "connectivity=%.6f\n", client.Rec.Connectivity(dur))
	fmt.Fprintf(&b, "connections=%v\n", client.Rec.Connections(dur))
	fmt.Fprintf(&b, "disruptions=%v\n", client.Rec.Disruptions(dur))
	fmt.Fprintf(&b, "driver=%+v\n", client.Driver.Stats())
	fmt.Fprintf(&b, "medium=%+v\n", world.Medium.Stats())
	fmt.Fprintf(&b, "tcp=%+v\n", client.TCPStats())
	fmt.Fprintf(&b, "fired=%d at=%v\n", world.Kernel.Fired(), world.Kernel.Now())
	return b.String(), o
}

func TestObsAttachIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed full drives are slow")
	}
	for _, seed := range []int64{1, 2, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			base, _ := obsFingerprint(seed, false)
			instrumented, o := obsFingerprint(seed, true)
			if base != instrumented {
				t.Fatalf("attaching obs perturbed the run:\n--- baseline ---\n%s\n--- instrumented ---\n%s", base, instrumented)
			}
			// Guard against a vacuously passing test: the instrumented run
			// must actually have collected something.
			if len(o.Tracer.Events()) == 0 {
				t.Fatal("tracer recorded nothing over a 4-minute drive")
			}
			var fired float64
			for _, p := range o.Reg.Snapshot() {
				if p.Name == "sim_events_fired_total" {
					fired = p.Value
				}
			}
			if fired == 0 {
				t.Fatal("registry exported sim_events_fired_total = 0")
			}
		})
	}
}

// promLine matches one sample line of the Prometheus text exposition
// format (metric name, optional le label, numeric value).
var promLine = regexp.MustCompile(`^[a-z_][a-z0-9_]*(\{le="[^"]+"\})? -?[0-9]`)

func TestObsExportValidity(t *testing.T) {
	fcfg, tl, _, err := fault.Resolve("mild")
	if err != nil {
		t.Fatal(err)
	}
	spec := AmherstDrive(7)
	world, mob := spec.Build()
	o := obs.New(0)
	world.AttachObs(o)
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP,
		core.EqualSchedule(200*time.Millisecond, 1, 6, 11))
	client := world.AddClient(cfg, mob)
	ch := ApplyChaos(world, client, fcfg)
	if len(tl) > 0 {
		ch.Injector.ScheduleTimeline(tl)
	}
	world.Run(3 * time.Minute)

	// Prometheus text: every non-comment line is a well-formed sample,
	// and the cross-layer metrics the dashboard keys on are present.
	var pb strings.Builder
	if err := o.Reg.Snapshot().WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	out := pb.String()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed Prometheus line %q", line)
		}
	}
	for _, want := range []string{
		"sim_events_fired_total",
		"radio_tx_total",
		"mac_assoc_grants_total",
		"dhcp_acks_total",
		"spider_switches_total",
		"spider_join_seconds_bucket",
		"tcp_segments_total",
		"client_goodput_bytes_total",
		"fault_ap_crash_injected_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics export missing %s", want)
		}
	}

	// Chrome trace: the whole document unmarshals and holds events.
	var tb strings.Builder
	if err := obs.WriteEventsChromeTrace(&tb, o.Tracer.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(tb.String()), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome trace holds no events")
	}

	// JSONL: every line parses.
	var jb strings.Builder
	if err := obs.WriteEventsJSONL(&jb, o.Tracer.Events()); err != nil {
		t.Fatal(err)
	}
	jsc := bufio.NewScanner(strings.NewReader(jb.String()))
	lines := 0
	for jsc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(jsc.Bytes(), &m); err != nil {
			t.Fatalf("JSONL line %q: %v", jsc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("JSONL export is empty")
	}
}

// Concurrent worlds must not interact: if any scenario/core/mac code
// drew from the global math/rand instead of a kernel stream, running
// two drives in parallel would perturb at least one of them relative to
// the serial run. This is the regression guard behind the package's
// named-RNG audit.
func TestScenarioTwoWorkerByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel full drives are slow")
	}
	run := func(workers int) []string {
		out, err := sweep.RunN(context.Background(), workers, 2,
			func(_ context.Context, i int) (string, error) {
				fp, _ := obsFingerprint(int64(i)+1, true)
				return fp, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(2)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("drive %d diverged between 1 and 2 workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}
