package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock is a settable stand-in for sim.Kernel.Now.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.AttachClock(func() time.Duration { return 0 })
	tr.SetFilter("x")
	tr.Instant("cat", "name")
	tr.Complete("cat", "name", 0)
	if tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must read as empty")
	}
}

func TestTracerRecordsNothingBeforeAttach(t *testing.T) {
	tr := NewTracer(8)
	tr.Instant("cat", "early")
	if tr.sc.Total != 0 {
		t.Fatalf("recorded %d events with no clock", tr.sc.Total)
	}
}

func TestRingWraparound(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(8)
	tr.AttachClock(clk.now)
	for i := 0; i < 20; i++ {
		clk.t = time.Duration(i) * time.Millisecond
		tr.Instant("cat", "e")
	}
	if got := tr.sc.Total; got != 20 {
		t.Fatalf("total = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("dropped = %d, want 12", got)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	// Oldest-first: events 12..19 survive.
	for i, ev := range evs {
		if want := time.Duration(12+i) * time.Millisecond; ev.Ts != want {
			t.Fatalf("event[%d].Ts = %v, want %v", i, ev.Ts, want)
		}
	}
}

func TestCompleteSpans(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(8)
	tr.AttachClock(clk.now)
	clk.t = 300 * time.Millisecond
	tr.Complete("mac.join", "assoc", 100*time.Millisecond, S("bssid", "ap1"))
	ev := tr.Events()[0]
	if ev.Ph != PhaseComplete {
		t.Fatalf("phase = %c, want X", ev.Ph)
	}
	if ev.Ts != 100*time.Millisecond || ev.Dur != 200*time.Millisecond {
		t.Fatalf("ts=%v dur=%v, want 100ms/200ms", ev.Ts, ev.Dur)
	}
	// A start after "now" (clock skew across worlds) clamps to zero
	// duration rather than going negative.
	tr.Complete("mac.join", "weird", 400*time.Millisecond)
	if d := tr.Events()[1].Dur; d != 0 {
		t.Fatalf("clamped dur = %v, want 0", d)
	}
}

func TestSetFilterPrefixes(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(8)
	tr.AttachClock(clk.now)
	tr.SetFilter("mac.", "dhcp")
	tr.Instant("mac.join", "kept")
	tr.Instant("dhcp", "kept")
	tr.Instant("core.switch", "filtered")
	if got := tr.sc.Total; got != 2 {
		t.Fatalf("total = %d, want 2 (core.switch filtered)", got)
	}
	tr.SetFilter() // empty filter records all again
	tr.Instant("core.switch", "kept")
	if got := tr.sc.Total; got != 3 {
		t.Fatalf("total = %d, want 3 after clearing filter", got)
	}
}

// Re-attaching the clock must concatenate timelines: spider-exp shares
// one tracer across sequential worlds, each starting its kernel at 0.
func TestAttachClockConcatenates(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(8)
	tr.AttachClock(clk.now)
	clk.t = 5 * time.Second
	tr.Instant("a", "world1")

	clk.t = 0 // second world's kernel restarts at zero
	tr.AttachClock(clk.now)
	clk.t = 2 * time.Second
	tr.Instant("a", "world2")

	evs := tr.Events()
	if evs[0].Ts != 5*time.Second {
		t.Fatalf("world1 ts = %v", evs[0].Ts)
	}
	if want := 7 * time.Second; evs[1].Ts != want {
		t.Fatalf("world2 ts = %v, want %v (offset by world1 high-water)", evs[1].Ts, want)
	}
}

func TestWriteJSONL(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(8)
	tr.AttachClock(clk.now)
	clk.t = time.Millisecond
	tr.Instant("dhcp", "offer", S("ip", "10.0.0.7"))
	clk.t = 3 * time.Millisecond
	tr.Complete("dhcp", "acquire", time.Millisecond, I("retx", 2))

	var b strings.Builder
	if err := WriteEventsJSONL(&b, tr.Events()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["ph"] != "i" || lines[0]["cat"] != "dhcp" || lines[0]["ts_us"] != 1000.0 {
		t.Fatalf("instant line = %v", lines[0])
	}
	if lines[1]["ph"] != "X" || lines[1]["dur_us"] != 2000.0 {
		t.Fatalf("complete line = %v", lines[1])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(8)
	tr.AttachClock(clk.now)
	clk.t = time.Millisecond
	tr.Instant("core.switch", "switch", I("from", 1), I("to", 6))
	clk.t = 2 * time.Millisecond
	tr.Complete("mac.join", "assoc", time.Millisecond)

	var b strings.Builder
	if err := WriteEventsChromeTrace(&b, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not valid Chrome trace JSON: %v\n%s", err, b.String())
	}
	var instants, completes, meta int
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "i":
			instants++
			if ev.Ts != 1000 {
				t.Fatalf("instant ts = %g µs, want 1000", ev.Ts)
			}
		case "X":
			completes++
			if ev.Dur == nil || *ev.Dur != 1000 {
				t.Fatalf("complete dur = %v, want 1000 µs", ev.Dur)
			}
		case "M":
			meta++
		}
		if ev.Cat != "" {
			tids[ev.Cat] = ev.Tid
		}
	}
	if instants != 1 || completes != 1 || meta == 0 {
		t.Fatalf("instants=%d completes=%d meta=%d", instants, completes, meta)
	}
	// Each category renders as its own named lane.
	if tids["core.switch"] == tids["mac.join"] {
		t.Fatalf("categories share a tid: %v", tids)
	}
}
