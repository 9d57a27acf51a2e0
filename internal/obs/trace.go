package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Arg is one key/value annotation on a trace event.
type Arg struct{ Key, Val string }

// S builds a string arg.
func S(k, v string) Arg { return Arg{Key: k, Val: v} }

// I builds an integer arg.
func I(k string, v int64) Arg { return Arg{Key: k, Val: strconv.FormatInt(v, 10)} }

// D builds a duration arg.
func D(k string, v time.Duration) Arg { return Arg{Key: k, Val: v.String()} }

// Event phases (a subset of the Chrome trace_event vocabulary).
const (
	PhaseInstant  = 'i'
	PhaseComplete = 'X'
)

// TraceEvent is one recorded event on the tracer's timeline.
type TraceEvent struct {
	Ts    time.Duration // event time on the tracer's (concatenated) clock
	Dur   time.Duration // span length for PhaseComplete events
	Ph    byte
	Shard int // owning shard for sharded runs (0 otherwise)
	Cat   string
	Name  string
	Args  []Arg
}

// defaultTraceCap bounds the ring when NewTracer gets 0: enough for a
// multi-hour drive's control-plane events without unbounded memory.
const defaultTraceCap = 1 << 16

// Tracer records structured events into a fixed ring buffer, stamped by
// the simulation kernel's virtual clock. When the ring wraps, the
// oldest events are overwritten (Dropped counts them). A nil *Tracer is
// safe: every method no-ops — but hot paths should still guard with a
// nil check to avoid evaluating args.
//
// AttachClock binds (or re-binds) the time source. Re-binding offsets
// the new clock by the high-water timestamp already recorded, so a
// tracer shared across sequential worlds (spider-exp) renders as one
// concatenated timeline instead of overlapping runs.
type Tracer struct {
	mu     sync.Mutex
	now    func() time.Duration
	sc     tracerScalars
	ring   []TraceEvent
	filter []string
}

// tracerScalars are a tracer's plain evolving fields, checkpointed
// whole.
type tracerScalars struct {
	Total   uint64
	Dropped uint64
	Base    time.Duration
	High    time.Duration
	Shard   int
}

// NewTracer creates a tracer with the given ring capacity (0 = default).
// It records nothing until AttachClock.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &Tracer{ring: make([]TraceEvent, capacity)}
}

// AttachClock binds the virtual-time source (typically sim.Kernel.Now).
// Subsequent events are stamped base+now() where base is the high-water
// mark at attach time.
func (t *Tracer) AttachClock(now func() time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sc.Base = t.sc.High
	t.now = now
}

// SetShard tags every subsequently recorded event with the owning
// shard. Sharded runs give each tile its own tracer so recording stays
// contention-free; MergeEvents reassembles the global timeline.
func (t *Tracer) SetShard(shard int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sc.Shard = shard
}

// SetFilter restricts recording to events whose category starts with
// one of the prefixes. No prefixes (or an empty string) records all.
func (t *Tracer) SetFilter(prefixes ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.filter = nil
	for _, p := range prefixes {
		if p != "" {
			t.filter = append(t.filter, p)
		}
	}
}

func (t *Tracer) pass(cat string) bool {
	if len(t.filter) == 0 {
		return true
	}
	for _, p := range t.filter {
		if strings.HasPrefix(cat, p) {
			return true
		}
	}
	return false
}

func (t *Tracer) record(ev TraceEvent) {
	if !t.pass(ev.Cat) {
		return
	}
	ev.Shard = t.sc.Shard
	if ev.Ts > t.sc.High {
		t.sc.High = ev.Ts
	}
	i := t.sc.Total % uint64(len(t.ring))
	if t.sc.Total >= uint64(len(t.ring)) {
		t.sc.Dropped++
	}
	t.ring[i] = ev
	t.sc.Total++
}

// Instant records a point event at the current clock time.
func (t *Tracer) Instant(cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.now == nil {
		return
	}
	t.record(TraceEvent{Ts: t.sc.Base + t.now(), Ph: PhaseInstant, Cat: cat, Name: name, Args: args})
}

// Complete records a span from start (a time in the attached clock's
// domain, e.g. a kernel timestamp the caller saved) to now.
func (t *Tracer) Complete(cat, name string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.now == nil {
		return
	}
	dur := t.now() - start
	if dur < 0 {
		dur = 0
	}
	t.record(TraceEvent{Ts: t.sc.Base + start, Dur: dur, Ph: PhaseComplete, Cat: cat, Name: name, Args: args})
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sc.Dropped
}

// Events returns the retained events in recording order (oldest first).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.sc.Total
	capN := uint64(len(t.ring))
	if n <= capN {
		return append([]TraceEvent(nil), t.ring[:n]...)
	}
	out := make([]TraceEvent, 0, capN)
	head := n % capN
	out = append(out, t.ring[head:]...)
	out = append(out, t.ring[:head]...)
	return out
}

// MergeEvents interleaves per-shard event streams into one global
// timeline, ordered by (Ts, Shard) with each shard's recording order
// preserved within a timestamp. The order is a pure function of the
// inputs, so a merged trace is as byte-stable as its per-shard parts.
func MergeEvents(streams ...[]TraceEvent) []TraceEvent {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	out := make([]TraceEvent, 0, n)
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func argMap(args []Arg) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args))
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// jsonlEvent is the JSONL export schema.
type jsonlEvent struct {
	TsUs  float64           `json:"ts_us"`
	DurUs float64           `json:"dur_us,omitempty"`
	Ph    string            `json:"ph"`
	Shard int               `json:"shard,omitempty"`
	Cat   string            `json:"cat"`
	Name  string            `json:"name"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteEventsJSONL writes one JSON object per event — the export shared
// by single tracers (Tracer.Events) and merged multi-shard timelines.
func WriteEventsJSONL(w io.Writer, events []TraceEvent) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		je := jsonlEvent{
			TsUs: usec(ev.Ts), Ph: string(ev.Ph), Shard: ev.Shard,
			Cat: ev.Cat, Name: ev.Name, Args: argMap(ev.Args),
		}
		if ev.Ph == PhaseComplete {
			je.DurUs = usec(ev.Dur)
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is the Chrome trace_event schema (object format).
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteEventsChromeTrace writes events as Chrome trace_event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing and Perfetto.
// The events are one tracer's (Tracer.Events) or a MergeEvents
// timeline. Shards render as separate processes; each category is a
// named track within its shard.
func WriteEventsChromeTrace(w io.Writer, events []TraceEvent) error {
	cats := make(map[string]int)
	var catNames []string
	shards := make(map[int]bool)
	for _, ev := range events {
		if _, ok := cats[ev.Cat]; !ok {
			cats[ev.Cat] = 0
			catNames = append(catNames, ev.Cat)
		}
		shards[ev.Shard] = true
	}
	sort.Strings(catNames)
	for i, c := range catNames {
		cats[c] = i + 1
	}
	var shardIDs []int
	for s := range shards {
		shardIDs = append(shardIDs, s)
	}
	sort.Ints(shardIDs)

	out := make([]chromeEvent, 0, len(events)+len(shardIDs)*(len(catNames)+1))
	for _, s := range shardIDs {
		name := "spider"
		if len(shardIDs) > 1 || s != 0 {
			name = "spider shard " + strconv.Itoa(s)
		}
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: s + 1,
			Args: map[string]string{"name": name},
		})
		for _, c := range catNames {
			out = append(out, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: s + 1, Tid: cats[c],
				Args: map[string]string{"name": c},
			})
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Ph: string(ev.Ph),
			Ts: usec(ev.Ts), Pid: ev.Shard + 1, Tid: cats[ev.Cat], Args: argMap(ev.Args),
		}
		if ev.Ph == PhaseComplete {
			d := usec(ev.Dur)
			ce.Dur = &d
		}
		if ev.Ph == PhaseInstant {
			ce.Scope = "t" // thread-scoped instant renders as a tick mark
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}
