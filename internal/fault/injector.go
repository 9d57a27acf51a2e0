package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"spider/internal/backhaul"
	"spider/internal/dhcp"
	"spider/internal/mac"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/sweep"
)

// ClassStat is one fault class's counters.
type ClassStat struct {
	Class string
	// Injected counts fault events applied; Skipped counts timeline
	// entries that resolved to no target.
	Injected uint64
	Skipped  uint64
	// Recovered counts injected faults followed by a successful driver
	// join; TTR aggregates the time from fault start to that join.
	Recovered uint64
	TTRTotal  time.Duration
	TTRMax    time.Duration
}

// MeanTTR returns the mean time-to-recover (0 with no recoveries).
func (c ClassStat) MeanTTR() time.Duration {
	if c.Recovered == 0 {
		return 0
	}
	return c.TTRTotal / time.Duration(c.Recovered)
}

// outstandingCap bounds the per-class list of unrecovered fault starts;
// beyond it, new faults still count as injected but cannot each earn a
// recovery credit (the run is saturated anyway).
const outstandingCap = 32

// Injector owns a run's fault schedule. Create it with NewInjector,
// attach the world's components (AttachAP/AttachLink/AttachMedium/
// AttachDriver), and the configured episodes arm themselves on the
// kernel. All-zero configs attach without scheduling anything or
// drawing any randomness — wrapped runs stay byte-identical.
//
// Streams: each (class, target) pair draws from
// sweep.RNG(kernelSeed, "fault."+class, targetIndex) — splitmix64
// derived, disjoint from every simulation stream by construction.
type Injector struct {
	kernel *sim.Kernel
	cfg    Config
	seed   int64

	aps    []*mac.AP
	links  []*backhaul.Link
	medium *radio.Medium
	// driver marks an attached driver (AttachDriver), whose host routes
	// its upcalls here.
	driver bool

	// apStream/linkStream map local attachment order to the stream index
	// used for RNG derivation. They coincide for whole-world injectors;
	// sharded runs attach with explicit global indices so a target's fault
	// timeline does not depend on which tile it landed in.
	apStream   []int
	linkStream []int

	// streams is the registry of per-(class, target) fault streams.
	// Each wraps a CountedSource so a checkpoint can record and restore
	// the stream's exact position; both the episode machinery and the
	// lazily created DHCP-chaos/reset streams draw through it.
	streams map[string]*faultStream

	// episodes tracks every armed recurring-fault timeline in attach
	// order, so a checkpoint can capture which phase each one is in.
	episodes []*episode

	// timelineUsed marks that a scripted Timeline was scheduled; those
	// closures are not reifiable, so the injector refuses to checkpoint.
	timelineUsed bool

	resetRNG *rand.Rand
	sc       injectorScalars

	classes map[string]*ClassStat
	// outstanding tracks unrecovered fault start times per class; the
	// driver's next successful join clears (and credits) them all.
	outstanding map[string][]time.Duration

	// tr, when set, records each fault episode as a trace span.
	tr *obs.Tracer
}

// injectorScalars are an injector's plain evolving fields,
// checkpointed whole: the reset-fault window a timeline sets over the
// profile probability.
type injectorScalars struct {
	ResetWindowProb  float64
	ResetWindowUntil time.Duration
}

// NewInjector creates an injector on kernel k whose fault streams derive
// from seed. Nothing fires until components are attached. A whole-world
// run passes its kernel's seed; sharded runs derive each tile's kernel
// seed from the world seed, but faults must draw from the *world's*
// streams, so every tile passes the world seed (and global target
// indices at attach time) and a target sees the same fault schedule in
// any tile layout.
func NewInjector(k *sim.Kernel, cfg Config, seed int64) *Injector {
	in := &Injector{
		kernel:      k,
		cfg:         cfg,
		seed:        seed,
		streams:     make(map[string]*faultStream),
		classes:     make(map[string]*ClassStat, len(Classes)),
		outstanding: make(map[string][]time.Duration),
	}
	for _, c := range Classes {
		in.classes[c] = &ClassStat{Class: c}
	}
	return in
}

// AttachObs exports per-class injected/recovered counters and records
// each fault episode as a trace span. The counters are read-closures
// over the ledger the injector already keeps, so the fault hot path is
// untouched; the tracer never draws RNG or schedules events, so an
// attached run stays byte-identical to a bare one.
func (in *Injector) AttachObs(o *obs.Obs) {
	if o == nil {
		return
	}
	in.tr = o.Tracer
	for _, class := range Classes {
		cs := in.classes[class]
		name := strings.ReplaceAll(class, "-", "_")
		o.Reg.CounterFunc("fault_"+name+"_injected_total",
			"Faults of class "+class+" injected.",
			func() float64 { return float64(cs.Injected) })
		o.Reg.CounterFunc("fault_"+name+"_recovered_total",
			"Faults of class "+class+" credited as recovered.",
			func() float64 { return float64(cs.Recovered) })
	}
}

// faultStream is one registered (class, target) stream: the counted
// source (for checkpoint position export) plus the rand.Rand drawing
// from it. The derivation seed rides along so a restore can rewind the
// source in place without re-deriving it.
type faultStream struct {
	seed int64
	src  *sim.CountedSource
	rng  *rand.Rand
}

// streamKey names a (class, target) stream for checkpoints.
func streamKey(class string, target int) string {
	return class + "." + strconv.Itoa(target)
}

// streamFor returns (creating on first use) the registered stream for
// the pair. The value sequence matches sweep.RNG(seed, "fault."+class,
// target) exactly; the counting wrapper only observes it.
func (in *Injector) streamFor(class string, target int) *faultStream {
	key := streamKey(class, target)
	fs := in.streams[key]
	if fs == nil {
		seed := sweep.TaskSeed(in.seed, "fault."+class, target)
		src := sim.NewCountedSource(seed)
		fs = &faultStream{seed: seed, src: src, rng: rand.New(src)}
		in.streams[key] = fs
	}
	return fs
}

func (in *Injector) stream(class string, target int) *rand.Rand {
	return in.streamFor(class, target).rng
}

// recordFault counts one injected fault and opens a recovery marker.
func (in *Injector) recordFault(class string) {
	cs := in.classes[class]
	cs.Injected++
	if o := in.outstanding[class]; len(o) < outstandingCap {
		in.outstanding[class] = append(o, in.kernel.Now())
	}
}

// DriverConnected credits every outstanding fault as recovered: the
// attached driver proved it can still join the hostile city. The
// driver's host calls it after each successful join.
func (in *Injector) DriverConnected() {
	now := in.kernel.Now()
	for _, class := range Classes {
		o := in.outstanding[class]
		if len(o) == 0 {
			continue
		}
		cs := in.classes[class]
		for _, t0 := range o {
			cs.Recovered++
			ttr := now - t0
			cs.TTRTotal += ttr
			if ttr > cs.TTRMax {
				cs.TTRMax = ttr
			}
		}
		in.outstanding[class] = o[:0]
	}
}

// episode is one target's recurring fault timeline, reified so a
// checkpoint can record which phase it is in: exactly one event is
// pending at any instant — the next start when healthy, the stop when
// a fault is active.
type episode struct {
	in          *Injector
	class       string
	key         string // streamKey(class, target): checkpoint identity
	rng         *rand.Rand
	mtbf        time.Duration
	dur         sim.Dist
	start, stop func()

	inFault bool
	t0      time.Duration // active episode's start, for the trace span
	ev      sim.Event
}

// arm draws the next inter-arrival gap and schedules the start. A 1 ms
// minimum spacing guards against event storms from tiny MTBF configs.
func (ep *episode) arm() {
	gap := time.Duration(ep.rng.ExpFloat64() * float64(ep.mtbf))
	if gap < time.Millisecond {
		gap = time.Millisecond
	}
	ep.ev = ep.in.kernel.FireAfter(gap, ep, episodeStart)
}

// Episode timer kinds, for Fire.
const (
	episodeStart uint8 = iota // a fault begins
	episodeStop               // the active fault ends
)

// Fire implements sim.Handler: the episode's start and stop fire
// through it.
func (ep *episode) Fire(kind uint8) {
	if kind == episodeStop {
		ep.finish()
		return
	}
	ep.fire()
}

func (ep *episode) fire() {
	in := ep.in
	in.recordFault(ep.class)
	ep.start()
	ep.inFault = true
	ep.t0 = in.kernel.Now()
	var d time.Duration
	if ep.dur != nil {
		d = ep.dur.Sample(ep.rng)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	ep.ev = in.kernel.FireAfter(d, ep, episodeStop)
}

func (ep *episode) finish() {
	in := ep.in
	ep.stop()
	ep.inFault = false
	ep.ev = sim.Event{}
	// in.tr is read at fire time, so episodes armed before AttachObs
	// still trace once it lands.
	if in.tr != nil {
		in.tr.Complete("fault."+ep.class, ep.class, ep.t0)
	}
	ep.arm()
}

// scheduleEpisodes arms one target's recurring fault timeline:
// exponential inter-arrival gaps with the given mean, each episode
// applying start, then stop after a dur sample. Episodes on one target
// never overlap.
func (in *Injector) scheduleEpisodes(class string, target int, mtbf time.Duration, dur sim.Dist, start, stop func()) {
	ep := &episode{
		in: in, class: class, key: streamKey(class, target),
		rng: in.stream(class, target), mtbf: mtbf, dur: dur,
		start: start, stop: stop,
	}
	in.episodes = append(in.episodes, ep)
	ep.arm()
}

// AttachAP registers an access point as fault target: crash/reboot
// cycles, beacon silences, and DHCP server misbehavior per the config.
// streamIdx names the AP's fault streams: a whole world passes its
// attach order, a sharded run the AP's global plan index.
func (in *Injector) AttachAP(ap *mac.AP, streamIdx int) {
	idx := len(in.aps)
	in.aps = append(in.aps, ap)
	in.apStream = append(in.apStream, streamIdx)
	if in.cfg.APCrashMTBF > 0 {
		in.scheduleEpisodes(ClassAPCrash, streamIdx, in.cfg.APCrashMTBF, in.cfg.APDowntime,
			ap.Crash, ap.Restart)
	}
	if in.cfg.BeaconSilenceMTBF > 0 {
		in.scheduleEpisodes(ClassBeaconSilence, streamIdx, in.cfg.BeaconSilenceMTBF, in.cfg.BeaconSilenceDur,
			func() { ap.SetBeaconMute(true) }, func() { ap.SetBeaconMute(false) })
	}
	if in.cfg.DHCPDrop > 0 || in.cfg.DHCPNak > 0 || in.cfg.DHCPSlowProb > 0 {
		in.setServerChaos(idx, in.baseChaos())
	}
}

// baseChaos is the profile-level DHCP misbehavior.
func (in *Injector) baseChaos() dhcp.Chaos {
	return dhcp.Chaos{
		Drop: in.cfg.DHCPDrop, Nak: in.cfg.DHCPNak,
		SlowProb: in.cfg.DHCPSlowProb, SlowThink: in.cfg.DHCPSlowThink,
	}
}

// setServerChaos (re)installs chaos on AP idx's DHCP server. The stream
// registry hands back one per-AP stream, so repeated installs never
// reset the draw sequence.
func (in *Injector) setServerChaos(idx int, c dhcp.Chaos) {
	if idx < 0 || idx >= len(in.aps) {
		return
	}
	rng := in.stream("dhcp", in.apStream[idx])
	in.aps[idx].DHCPServer().SetChaos(rng, c, func(kind string) {
		in.recordFault("dhcp-" + kind)
	})
}

// AttachLink registers a backhaul link as fault target: blackhole
// outages and latency spikes. streamIdx names the link's fault streams:
// a whole world passes its attach order, a sharded run the owning AP's
// global plan index.
func (in *Injector) AttachLink(l *backhaul.Link, streamIdx int) {
	in.links = append(in.links, l)
	in.linkStream = append(in.linkStream, streamIdx)
	if in.cfg.BlackholeMTBF > 0 {
		in.scheduleEpisodes(ClassBlackhole, streamIdx, in.cfg.BlackholeMTBF, in.cfg.BlackholeDur,
			func() { l.SetBlackhole(true) }, func() { l.SetBlackhole(false) })
	}
	if in.cfg.LatencySpikeMTBF > 0 {
		rng := in.stream(ClassLatencySpike, streamIdx)
		extraDist := in.cfg.LatencySpikeExtra
		in.scheduleEpisodes(ClassLatencySpike, streamIdx, in.cfg.LatencySpikeMTBF, in.cfg.LatencySpikeDur,
			func() {
				extra := 300 * time.Millisecond
				if extraDist != nil {
					extra = extraDist.Sample(rng)
				}
				l.SetFaultLatency(extra)
			},
			func() { l.SetFaultLatency(0) })
	}
}

// AttachMedium registers the radio medium and the channels that can
// take burst-loss episodes (one independent stream per channel).
func (in *Injector) AttachMedium(m *radio.Medium, channels []int) {
	in.medium = m
	if in.cfg.BurstMTBF > 0 && in.cfg.BurstExtraLoss > 0 {
		for i, ch := range channels {
			ch := ch
			extra := in.cfg.BurstExtraLoss
			in.scheduleEpisodes(ClassBurstLoss, i, in.cfg.BurstMTBF, in.cfg.BurstDur,
				func() { m.SetBurstLoss(ch, extra) }, func() { m.SetBurstLoss(ch, 0) })
		}
	}
}

// AttachDriver registers the Spider driver whose host routes its
// upcalls to this injector: DriverConnected after each successful join
// (recovery accounting) and ResetDelay on each channel switch. Reset
// faults arm when configured.
func (in *Injector) AttachDriver() {
	in.driver = true
	if in.cfg.ResetFailProb > 0 {
		in.armResetFaults()
	}
}

// armResetFaults draws the attached driver's reset-fault stream, once.
// Until then ResetDelay draws nothing.
func (in *Injector) armResetFaults() {
	if in.resetRNG != nil || !in.driver {
		return
	}
	in.resetRNG = in.stream(ClassResetFail, 0)
}

// ResetDelay returns the extra hardware-reset time a fault adds to the
// attached driver's channel switch, 0 for a healthy one.
func (in *Injector) ResetDelay() time.Duration {
	if in.resetRNG == nil {
		return 0
	}
	p := in.cfg.ResetFailProb
	if in.kernel.Now() < in.sc.ResetWindowUntil && in.sc.ResetWindowProb > p {
		p = in.sc.ResetWindowProb
	}
	if p <= 0 || in.resetRNG.Float64() >= p {
		return 0
	}
	in.recordFault(ClassResetFail)
	stuck := 250 * time.Millisecond
	if in.cfg.ResetStuck != nil {
		stuck = in.cfg.ResetStuck.Sample(in.resetRNG)
	}
	if stuck < time.Millisecond {
		stuck = time.Millisecond
	}
	return stuck
}

// Snapshot returns every class's counters in canonical order.
func (in *Injector) Snapshot() []ClassStat {
	out := make([]ClassStat, 0, len(Classes))
	for _, c := range Classes {
		out = append(out, *in.classes[c])
	}
	return out
}

// TotalInjected sums injected faults across classes.
func (in *Injector) TotalInjected() uint64 {
	var t uint64
	for _, c := range Classes {
		t += in.classes[c].Injected
	}
	return t
}

// Report renders a deterministic per-class table for the CLI.
func (in *Injector) Report() string {
	var b strings.Builder
	b.WriteString("fault report:\n")
	for _, cs := range in.Snapshot() {
		if cs.Injected == 0 && cs.Skipped == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-15s injected %-5d recovered %-5d mean-ttr %-10v max-ttr %v\n",
			cs.Class, cs.Injected, cs.Recovered, cs.MeanTTR().Round(time.Millisecond),
			cs.TTRMax.Round(time.Millisecond))
	}
	if in.TotalInjected() == 0 {
		b.WriteString("  (no faults injected)\n")
	}
	return b.String()
}
