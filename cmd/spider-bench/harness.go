package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spider/internal/sweep"
)

// options are one run's settings.
type options struct {
	seed    int64
	budget  time.Duration // op time to measure on the reference machine
	traced  bool          // CPU profile on
	quick   bool          // small fixtures, for tests
	workers int           // shard workers for the city workloads
}

// span is one timed interval of a run, recorded from the harness around
// a call into a layer.
type span struct {
	name           string
	start          time.Duration // since the run began
	dur            time.Duration
	rep, input, op int
}

// tracer keeps a run's spans in memory; they are written out at exit.
type tracer struct {
	t0             time.Time
	rep, input, op int // position stamped on the next span
	spans          []span
}

// begin starts a span; calling the returned func ends it and returns its
// duration.
func (t *tracer) begin(name string) func() time.Duration {
	s := time.Now()
	return func() time.Duration {
		d := time.Since(s)
		t.spans = append(t.spans, span{name: name, start: s.Sub(t.t0), dur: d, rep: t.rep, input: t.input, op: t.op})
		return d
	}
}

func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur.Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto), wall clock in microseconds.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]int{"replay": s.rep, "input": s.input, "op": s.op},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// host is the runtime and process state read around every op.
type host struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, usedCPU                  float64 // runtime's CPU-class estimates, seconds
	pauseNs                         uint64
	procCPU                         time.Duration // user+system, from getrusage
	heapLive                        uint64        // a gauge: live heap after the last GC
}

var hostSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readHost() host {
	// ReadMemStats goes first: it flushes every P's allocation cache, whose
	// allocations the runtime counts only when a span is refilled, so the
	// allocation counters read next are exact at this point.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(hostSamples))
	for i, n := range hostSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return host{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		usedCPU:    s[4].Value.Float64() - s[5].Value.Float64(),
		heapLive:   s[6].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
		procCPU:    time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)),
	}
}

// addDelta accumulates the cost of one op: the counters' growth from
// before to after, and the largest live heap seen.
func (h *host) addDelta(before, after host) {
	h.allocBytes += after.allocBytes - before.allocBytes
	h.allocObjs += after.allocObjs - before.allocObjs
	h.gcCycles += after.gcCycles - before.gcCycles
	h.gcCPU += after.gcCPU - before.gcCPU
	h.usedCPU += after.usedCPU - before.usedCPU
	h.pauseNs += after.pauseNs - before.pauseNs
	h.procCPU += after.procCPU - before.procCPU
	h.heapLive = max(h.heapLive, after.heapLive)
}

// result is everything one run measured.
type result struct {
	ops, failed int
	replays     int           // rounds over the inputs
	virtual     time.Duration // simulated time covered by all ops
	wall        time.Duration // wall time of all ops
	// fastest[in][j] is the quickest replay of input in's op j, and
	// opVirtual[in][j] the virtual time that op covers.
	fastest, opVirtual [][]time.Duration
	setup              []time.Duration // per instance: build plus warm-up
	peakRSS            []float64       // per instance: peak RSS, MiB
	host               host            // summed over the ops
	total              counts          // over every op
	final              []counts        // per input: its first replay's counters

	// The pinned prefix, the run's first ops: their counters and the
	// SHA-256 over their archives.
	prefixOps    int
	prefix       counts
	hash         hash.Hash
	digest       string
	archives     int
	archiveBytes int

	tiles int
	spans *tracer
	// profiles holds, when traced, one CPU profile per instance, covering
	// its ops and the gate between them but not its set-up.
	profiles [][]byte
}

// measure runs a workload: its inputs built from the seed, then replayed
// round after round, each replay a fresh identical instance advancing
// through the same closed-loop ops, with the correctness gate after every
// op. A replay must end with exactly the counters of the first; the run
// times each op by its fastest replay.
func measure(w workload, o options) (*result, error) {
	r := &result{
		spans:     &tracer{t0: time.Now()},
		fastest:   make([][]time.Duration, w.inputs),
		opVirtual: make([][]time.Duration, w.inputs),
		final:     make([]counts, w.inputs),
		hash:      sha256.New(),
	}
	if err := r.rounds(w, o); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.digest = hex.EncodeToString(r.hash.Sum(nil))
	return r, nil
}

// rounds runs the replays. The number of rounds is set by the budget and
// the workload's reference round time, not by the clock, so a run does
// the same work on every commit and every machine.
func (r *result) rounds(w workload, o options) error {
	n := max(1, int(o.budget/w.round))
	for rep := 0; rep < n; rep++ {
		r.replays++
		for in := 0; in < w.inputs; in++ {
			// Each instance starts as a fresh process would, whatever the
			// previous one left behind: from a collected heap whose memory
			// is back with the OS, and with the peak RSS reset to the
			// current RSS, so that the peak read after it is its own.
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return err
			}
			r.spans.rep, r.spans.input, r.spans.op = rep, in, 0
			inst, err := r.setUp(w, o, sweep.TaskSeed(o.seed, "spider-bench/"+w.name, in))
			if err != nil {
				return err
			}
			var prof bytes.Buffer
			if o.traced {
				if err := pprof.StartCPUProfile(&prof); err != nil {
					return err
				}
			}
			r.replay(w, inst, rep, in)
			if o.traced {
				pprof.StopCPUProfile()
				r.profiles = append(r.profiles, prof.Bytes())
			}
			peak, err := peakRSSMiB()
			if err != nil {
				return err
			}
			r.peakRSS = append(r.peakRSS, peak)
		}
	}
	return nil
}

// setUp builds and warms one instance, timing both as set-up.
func (r *result) setUp(w workload, o options, seed int64) (instance, error) {
	end := r.spans.begin("setup.build")
	inst := w.build(o, seed, r.spans)
	d := end()
	end = r.spans.begin("setup.warmup")
	err := inst.warmup()
	r.setup = append(r.setup, d+end())
	return inst, err
}

// replay runs one instance's ops.
func (r *result) replay(w workload, inst instance, rep, in int) {
	base := inst.counts()
	for j := 0; j < w.ops; j++ {
		r.spans.op = j
		before := readHost()
		end := r.spans.begin("op")
		v, err := inst.op()
		d := end()
		r.host.addDelta(before, readHost())
		r.ops++
		r.virtual += v
		r.wall += d
		if rep == 0 {
			r.fastest[in] = append(r.fastest[in], d)
			r.opVirtual[in] = append(r.opVirtual[in], v)
		} else if j < len(r.fastest[in]) {
			r.fastest[in][j] = min(r.fastest[in][j], d)
		}
		if err == nil {
			err = inst.check()
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "spider-bench: %s input %d replay %d op %d failed: %v\n", w.name, in, rep, j, err)
		}
		last := err != nil || j+1 == w.ops
		if rep == 0 && r.ops <= w.prefix {
			if last || r.ops == w.prefix {
				r.prefixOps = r.ops
				r.prefix.add(inst.counts().minus(base))
				enc := inst.archive()
				r.hash.Write(enc)
				r.archives++
				r.archiveBytes += len(enc)
			}
		}
		if last {
			break
		}
	}
	n := inst.counts().minus(base)
	r.total.add(n)
	if rep == 0 {
		r.final[in] = n
	} else if n != r.final[in] {
		r.failed++
		fmt.Fprintf(os.Stderr, "spider-bench: %s input %d replay %d diverged from the first replay:\n%v\n%v\n", w.name, in, rep, n, r.final[in])
	}
	r.tiles = inst.tiles()
}

// fastestSeconds lists every op's fastest replay, in seconds.
func (r *result) fastestSeconds() []float64 {
	var out []float64
	for _, ops := range r.fastest {
		out = append(out, seconds(ops)...)
	}
	return out
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is what a user of the simulator sees, from the untraced run.
// Times rest on each op's fastest replay: on a shared machine other
// tenants only ever add time, so the fastest replay is the steadiest
// estimate of what an op costs.
func (r *result) endToEnd() map[string]metric {
	sim := r.virtual.Seconds()
	return map[string]metric{
		"sim_s_per_wall_s":   {r.simRate(), "sim-s/s"},
		"op_s_p50":           {quantile(r.fastestSeconds(), 0.5), "s"},
		"setup_s":            {quantile(seconds(r.setup), 0.5), "s"},
		"alloc_mb_per_sim_s": {float64(r.host.allocBytes) / 1e6 / sim, "MB/sim-s"},
		"allocs_per_sim_s":   {float64(r.host.allocObjs) / sim, "1/sim-s"},
		"peak_rss_mib":       {quantile(r.peakRSS, 0.5), "MiB"},
	}
}

// simRate is simulated seconds per wall second over every op's fastest
// replay.
func (r *result) simRate() float64 {
	var virtual, fastest time.Duration
	for in := range r.fastest {
		for j, d := range r.fastest[in] {
			fastest += d
			virtual += r.opVirtual[in][j]
		}
	}
	return virtual.Seconds() / fastest.Seconds()
}

// perOpCounts are the deterministic counters reported per op of the
// pinned prefix.
var perOpCounts = []struct {
	name string
	idx  int
}{
	{"sim.events", cEvents},
	{"radio.tx", cTx},
	{"radio.delivered", cDelivered},
	{"radio.lost", cLost},
	{"radio.missed_away", cMissedAway},
	{"radio.out_of_range", cOutOfRange},
	{"radio.cs_deferrals", cCSDeferred},
	{"radio.halo_injected", cHalo},
	{"mac.assoc_grants", cAssocGrants},
	{"dhcp.discovers", cDiscovers},
	{"dhcp.acks", cAcks},
	{"core.assoc_attempts", cAssocAttempts},
	{"core.join_successes", cJoins},
	{"core.switches", cSwitches},
	{"tcpsim.segments", cSegments},
	{"tcpsim.goodput_bytes", cGoodput},
	{"shard.migrations", cMigrations},
}

// perLayer is the traced run's table: CPU self time per layer, the
// deterministic counters, and host cost and waiting. cpu holds the
// profile's nanoseconds per layer; overhead is the tracing overhead.
func (r *result) perLayer(cpu map[string]int64, overhead float64) map[string]metric {
	ops := float64(r.ops)
	m := map[string]metric{}
	for _, l := range layers {
		m[l+".self_ms"] = metric{float64(cpu[l]) / 1e6 / ops, "ms/op"}
	}
	p := r.prefix
	k := float64(r.prefixOps)
	for _, c := range perOpCounts {
		m[c.name] = metric{float64(p[c.idx]) / k, "1/op"}
	}
	m["radio.delivery_ratio"] = metric{ratio(p[cDelivered], p[cDelivered]+p[cLost]+p[cMissedAway]+p[cOutOfRange]), "ratio"}
	m["core.assoc_success_ratio"] = metric{ratio(p[cAssocSuccesses], p[cAssocAttempts]), "ratio"}
	m["core.dhcp_success_ratio"] = metric{ratio(p[cDHCPSuccesses], p[cDHCPAttempts]), "ratio"}
	m["core.throughput_kbps"] = metric{ratio(8*p[cRxBytes], 1000*p[cClientSeconds]), "kbps"}
	m["core.connectivity"] = metric{ratio(p[cBusySeconds], p[cClientSeconds]), "ratio"}
	m["tcpsim.retx_ratio"] = metric{ratio(p[cRetx], p[cSegments]), "ratio"}
	m["shard.tiles"] = metric{float64(r.tiles), "count"}

	h := r.host
	m["sim.ns_per_event"] = metric{ratio(uint64(r.wall.Nanoseconds()), r.total[cEvents]), "ns"}
	m["radio.ns_per_delivery"] = metric{ratio(uint64(cpu["radio"]), r.total[cDelivered]), "ns"}
	m["shard.cpu_utilization"] = metric{h.procCPU.Seconds() / (r.wall.Seconds() * float64(runtime.GOMAXPROCS(0))), "ratio"}
	if r.tiles > 0 { // a city op is one barrier epoch
		m["shard.epoch_ms_p90"] = metric{1e3 * quantile(r.fastestSeconds(), 0.9), "ms"}
	} else {
		m["shard.epoch_ms_p90"] = metric{0, "ms"}
	}
	m["runtime.gc_cycles"] = metric{float64(h.gcCycles) / ops, "1/op"}
	gcShare := 0.0
	if h.usedCPU > 0 {
		gcShare = h.gcCPU / h.usedCPU
	}
	m["runtime.gc_cpu_fraction"] = metric{gcShare, "ratio"}
	m["runtime.gc_pause_ms"] = metric{float64(h.pauseNs) / 1e6 / ops, "ms/op"}
	m["runtime.heap_live_mib_max"] = metric{float64(h.heapLive) / (1 << 20), "MiB"}
	m["archive.encode_ms"] = metric{1e3 * quantile(r.spans.durations("archive.encode"), 0.5), "ms"}
	m["archive.bytes"] = metric{float64(r.archiveBytes) / float64(r.archives), "bytes"}
	m["trace_overhead"] = metric{overhead, "ratio"}
	m["ops"] = metric{ops, "count"}
	return m
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile interpolates linearly between closest ranks (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// resetPeakRSS resets the process's peak resident set size (VmHWM) to its
// current resident set size (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS: VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %q: %w", line, err)
			}
			return v / 1024, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}
