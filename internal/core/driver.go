package core

import (
	"math/rand"
	"strconv"
	"time"

	"spider/internal/dhcp"
	"spider/internal/geo"
	"spider/internal/mac"
	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// Host is the driver's owner: the client the driver runs for. The
// driver reports every outcome to it synchronously, and asks it for the
// hardware-reset time a fault adds to each channel switch.
type Host interface {
	// Connected is called when an interface obtains a lease.
	Connected(ifc *Iface)
	// Disconnected is called when a connected interface is torn down.
	Disconnected(ifc *Iface)
	// AssocResult is called per link-layer join attempt outcome.
	AssocResult(bssid wifi.Addr, res mac.AssocResult)
	// JoinResult is called per full join (assoc+DHCP) outcome; elapsed
	// is measured from association start to DHCP outcome (Figs. 6, 11,
	// 12).
	JoinResult(bssid wifi.Addr, success bool, elapsed time.Duration)
	// Downlink takes each non-DHCP downlink payload from a known AP.
	// db belongs to the frame, which is recycled after the call.
	Downlink(bssid wifi.Addr, db *wifi.DataBody)
	// ResetDelay returns the extra hardware-reset time a fault adds to
	// the channel switch being made (0 for a healthy switch).
	ResetDelay() time.Duration
}

// Stats aggregates driver counters.
type Stats struct {
	Switches       uint64
	AssocAttempts  uint64
	AssocSuccesses uint64
	DHCPAttempts   uint64
	DHCPSuccesses  uint64
	DHCPFailures   uint64
	JoinSuccesses  uint64
	FastPathJoins  uint64
	ProbesSent     uint64
	TxQueueDrops   uint64
	UplinkFrames   uint64
	DownlinkFrames uint64
	DownlinkBytes  uint64
	Disconnects    uint64
	// SoftHandoffs counts joins completed while another association was
	// already connected — the make-before-break events that let multi-AP
	// modes ride through AP transitions without a gap.
	SoftHandoffs uint64
	// Renewals / RenewalFailures count T1 lease renewals.
	Renewals        uint64
	RenewalFailures uint64
	// Blacklisted counts quarantines (retry budget exhausted);
	// BlacklistEvictions counts quarantines served out.
	Blacklisted        uint64
	BlacklistEvictions uint64
	// LeaseRevalidations counts re-associations that revalidated a cached
	// lease via the REQUEST-first path.
	LeaseRevalidations uint64
	// ResetFaults counts channel switches whose hardware reset was
	// fault-stretched.
	ResetFaults uint64
	// TeardownPurged counts frames purged from per-channel transmit
	// queues because their interface was torn down.
	TeardownPurged uint64
	// DwellOverruns counts slice boundaries that arrived while the
	// previous channel switch was still in flight — the schedule asked
	// for a dwell shorter than the switch machinery could deliver.
	DwellOverruns uint64
}

// Add returns the field-wise sum of two snapshots. Client-lifetime
// accounting sums the snapshots of every driver a migrating client has
// run on.
func (s Stats) Add(o Stats) Stats {
	s.Switches += o.Switches
	s.AssocAttempts += o.AssocAttempts
	s.AssocSuccesses += o.AssocSuccesses
	s.DHCPAttempts += o.DHCPAttempts
	s.DHCPSuccesses += o.DHCPSuccesses
	s.DHCPFailures += o.DHCPFailures
	s.JoinSuccesses += o.JoinSuccesses
	s.FastPathJoins += o.FastPathJoins
	s.ProbesSent += o.ProbesSent
	s.TxQueueDrops += o.TxQueueDrops
	s.UplinkFrames += o.UplinkFrames
	s.DownlinkFrames += o.DownlinkFrames
	s.DownlinkBytes += o.DownlinkBytes
	s.Disconnects += o.Disconnects
	s.SoftHandoffs += o.SoftHandoffs
	s.Renewals += o.Renewals
	s.RenewalFailures += o.RenewalFailures
	s.Blacklisted += o.Blacklisted
	s.BlacklistEvictions += o.BlacklistEvictions
	s.LeaseRevalidations += o.LeaseRevalidations
	s.ResetFaults += o.ResetFaults
	s.TeardownPurged += o.TeardownPurged
	s.DwellOverruns += o.DwellOverruns
	return s
}

// queuedFrame is one frame parked in the driver's transmit queue until
// the radio visits its channel.
type queuedFrame struct {
	f  *wifi.Frame
	ch int
}

// deauthLeavingBody is the deauth a driver sends when it tears down a
// connected interface (reason 3, station leaving). It is shared and
// read-only, like every body that is the same on every frame.
var deauthLeavingBody = &wifi.DeauthBody{Reason: 3}

// Driver is the Spider driver: one physical radio, a channel-centric
// scheduler, per-channel transmit queues, and up to MaxInterfaces
// concurrent virtual interfaces.
type Driver struct {
	kernel *sim.Kernel
	cfg    Config
	pol    *policy
	radio  *radio.Radio
	host   Host

	table  *apTable
	ifaces map[wifi.Addr]*Iface

	// sc holds the plain evolving fields, checkpointed whole.
	sc driverScalars
	// stopped is set by Shutdown: every self-rescheduling tick and every
	// in-flight completion checks it and winds down instead of re-arming.
	stopped bool

	// txq holds the frames waiting for their channel, one queue for all
	// channels: each channel's frames keep their order, and each channel
	// is capped at pol.txQueueFrames on its own. Its first backing holds
	// txqFirst frames.
	txq []queuedFrame

	// Every self-rescheduling tick keeps its live event handle so a
	// checkpoint can record — and a restore re-arm — its exact identity,
	// and so Shutdown can disarm all of them (a retired driver must leave
	// nothing in the heap).
	scanEv     sim.Event
	sliceEv    sim.Event
	inactEv    sim.Event
	bgScanEv   sim.Event
	bgReturnEv sim.Event
	apSliceEv  sim.Event
	// startEv is the deferred-admission alarm (Config.StartAt).
	startEv sim.Event

	// pool is the medium's frame pool (nil under NoPool); every frame the
	// driver originates comes from it and is recycled by the medium at
	// transmit completion.
	pool *wifi.Pool
	// The in-flight channel switch's interfaces to wake on arrival and
	// its two stages; the rest of its state is in sc.
	swPolls    []*Iface
	swLingerEv sim.Event
	swRetuneEv sim.Event
	// ifScratch backs liveIfaces, connScratch the AP slicer's connected
	// interfaces on the current channel; ifaceFree recycles torn-down
	// interfaces (with their joiner and DHCP state machines) for the next
	// join.
	ifScratch   []*Iface
	connScratch []*Iface
	ifaceFree   []*Iface
	// ifArr and pollArr are the first backing of ifScratch and swPolls,
	// with room for the paper's interface count, so neither grows from
	// nil on a driver's first joins; more interfaces spill to the heap.
	ifArr, pollArr [paperInterfaces]*Iface
	// dhcpMsg is the downlink DHCP decode scratch, handed synchronously
	// to the interface's client.
	dhcpMsg dhcp.Message

	// backoffRNG jitters escalated hold-downs and quarantines. Its own
	// named stream: drawing it must not perturb any protocol stream.
	backoffRNG *rand.Rand
	// inv counts driver- and state-machine-level invariant violations
	// (shared with each interface's joiner and DHCP client).
	inv *metrics.InvariantSet

	// Observability (all nil-safe; see AttachObs). The tracer guard at
	// call sites skips argument construction when tracing is off.
	tr                     *obs.Tracer
	hAssoc, hJoin, hSwitch *obs.Histogram
}

// driverScalars are a driver's plain evolving fields. DriverState
// embeds them, so a checkpoint stores them whole.
type driverScalars struct {
	SchedIdx   int
	APSliceIdx int
	Switching  bool
	// Dwelling pins a multi-channel single-AP driver to its connected
	// AP's channel.
	Dwelling bool
	// Started flips when the deferred-admission alarm (Config.StartAt)
	// fires; a driver whose StartAt is past starts at construction.
	Started bool
	Seq     uint16
	// IdleUntil blocks all joins (the stock client's post-failure sulk).
	IdleUntil  time.Duration
	BGHome     int
	DwellStart time.Duration
	// The in-flight channel switch. A switch that starts while another
	// is still in flight supersedes it: the generation counter
	// invalidates stale PSM completions and the pending linger/retune
	// events are cancelled, so exactly one switch owns the radio at a
	// time. Keeping the state in fields (instead of per-switch closures)
	// makes the whole path allocation-free apart from one generation
	// guard per PSM burst.
	SwGen         uint64
	SwCh          int
	SwReset       time.Duration
	SwOutstanding int
	Stats         Stats
}

// NewDriver creates a driver for host, registers its radio on the medium
// with the given mobility model, tunes to the first scheduled channel,
// and starts the scheduler and scanner.
func NewDriver(m *radio.Medium, cfg Config, addr wifi.Addr, mob geo.Mobility, host Host) *Driver {
	return newDriver(m, cfg, modePolicy(cfg.Mode), addr, mob, host)
}

// newDriver is NewDriver with the timers given rather than taken from
// the mode. The driver keeps pol and never writes to it.
func newDriver(m *radio.Medium, cfg Config, pol *policy, addr wifi.Addr, mob geo.Mobility, host Host) *Driver {
	k := m.Kernel()
	d := &Driver{
		kernel:     k,
		cfg:        cfg.withDefaults(),
		pol:        pol,
		host:       host,
		table:      newAPTable(),
		ifaces:     make(map[wifi.Addr]*Iface),
		backoffRNG: backoffStream(k, addr),
		inv:        metrics.NewInvariantSet(),
	}
	d.ifScratch, d.swPolls = d.ifArr[:0], d.pollArr[:0]
	d.radio = m.NewRadio(addr, mob, d)
	d.pool = m.Pool()
	if d.cfg.StartAt > k.Now() {
		// Deferred admission: the driver exists — radio registered on the
		// medium, RNG stream claimed, so construction order still matches
		// an immediate-start build — but stays dormant until the alarm.
		d.startEv = k.FireAt(d.cfg.StartAt, d, timerStart)
		return d
	}
	d.start()
	return d
}

// backoffStream returns the driver's backoff stream, named
// "core.backoff.<addr>". The name is assembled on the stack, so a driver
// rebuilt in a world that already holds its stream (a client migrating
// back) allocates nothing for it.
func backoffStream(k *sim.Kernel, addr wifi.Addr) *rand.Rand {
	var buf [32]byte // the prefix and one address: 30 bytes
	b := append(buf[:0], "core.backoff."...)
	return k.RNGBytes(addr.AppendTo(b))
}

// Driver timer kinds, for Fire. Every tick and switch stage fires
// through the driver itself, so re-arming one allocates nothing.
const (
	timerStart      uint8 = iota // the deferred-admission alarm
	timerScan                    // the scan tick
	timerSlice                   // the channel schedule's next slice
	timerInactivity              // the once-a-second liveness check
	timerBGScan                  // the background-scan tick
	timerBGReturn                // the end of a background-scan visit
	timerAPSlice                 // the AP-centric slicer's tick
	timerLinger                  // a switch's PSM linger ends
	timerArrive                  // a switch's retune ends
)

// Fire implements sim.Handler: the driver's timers fire through it.
func (d *Driver) Fire(kind uint8) {
	switch kind {
	case timerStart:
		d.start()
	case timerScan:
		d.scanTick()
	case timerSlice:
		d.nextSlice()
	case timerInactivity:
		d.inactivityTick()
	case timerBGScan:
		d.backgroundScanTick()
	case timerBGReturn:
		d.backgroundReturn()
	case timerAPSlice:
		d.apSliceTick()
	case timerLinger:
		d.linger()
	case timerArrive:
		d.arrive()
	}
}

// start admits the driver: tune to the first scheduled channel and arm
// the scheduler, scanner, and inactivity ticks. Runs at construction
// when Config.StartAt has already passed (the legacy path, same kernel
// calls in the same order) or from the deferred-admission alarm.
func (d *Driver) start() {
	d.startEv = sim.Event{}
	if d.stopped {
		return
	}
	d.sc.Started = true
	d.radio.SetChannel(d.cfg.Schedule[0].Channel)
	d.scanEv = d.kernel.FireAfter(0, d, timerScan)
	if len(d.cfg.Schedule) > 1 {
		d.sliceEv = d.kernel.FireAfter(d.cfg.Schedule[0].Dwell, d, timerSlice)
	}
	d.inactEv = d.kernel.FireAfter(time.Second, d, timerInactivity)
	if d.pol.bgScanEvery > 0 && len(d.cfg.Schedule) > 1 {
		d.bgScanEv = d.kernel.FireAfter(d.pol.bgScanEvery, d, timerBGScan)
	}
	if d.cfg.APCentric {
		d.startAPSlicer()
	}
}

// Shutdown permanently stops the driver: every interface is torn down
// (deauthing connected APs so they free state), the channel rotation and
// scan timers are disarmed, and the radio is left untuned, so the driver
// neither transmits nor receives again. The shard runtime calls it when
// a client migrates out of a shard; the client's protocol life continues
// in the destination shard's driver, warmed by ExportAPRecords.
func (d *Driver) Shutdown() {
	if d.stopped {
		return
	}
	for _, ifc := range d.Interfaces() {
		d.teardown(ifc)
	}
	d.stopped = true
	// Disarm every tick and in-flight switch stage: a retired driver must
	// leave nothing in the event heap, so a checkpoint taken after the
	// migration has no orphan timers pointing at a dead owner.
	d.startEv.Cancel()
	d.startEv = sim.Event{}
	d.scanEv.Cancel()
	d.scanEv = sim.Event{}
	d.sliceEv.Cancel()
	d.sliceEv = sim.Event{}
	d.inactEv.Cancel()
	d.inactEv = sim.Event{}
	d.bgScanEv.Cancel()
	d.bgScanEv = sim.Event{}
	d.bgReturnEv.Cancel()
	d.bgReturnEv = sim.Event{}
	d.apSliceEv.Cancel()
	d.apSliceEv = sim.Event{}
	d.swLingerEv.Cancel()
	d.swLingerEv = sim.Event{}
	d.swRetuneEv.Cancel()
	d.swRetuneEv = sim.Event{}
	d.sc.Switching = false
	// Frames already committed to the radio finish as pure physics — the
	// airtime is spent and deliveries still draw loss — but their tags
	// are stripped so nothing upcalls into the retired driver (a stale
	// PSM completion could otherwise schedule a linger tick).
	d.radio.Orphan(nil)
	d.radio.SetChannel(0)
}

// ExportAPRecords returns value copies of the scan table, sorted by
// BSSID — the deterministic handoff payload for a shard migration.
func (d *Driver) ExportAPRecords() []APRecord {
	recs := d.table.all()
	out := make([]APRecord, 0, len(recs))
	for _, r := range recs {
		out = append(out, *r)
	}
	return out
}

// ImportAPRecord seeds the scan table with a record learned elsewhere (a
// migrating client's history). halo marks APs that do not exist in this
// driver's world — the history is kept for when/if the AP is ever seen
// directly, but the record is not joinable. Records the driver already
// knows first-hand are left untouched.
func (d *Driver) ImportAPRecord(rec APRecord, halo bool) {
	if d.table.get(rec.BSSID) != nil {
		return
	}
	r := rec
	r.Halo = halo
	d.table.byBSSID[r.BSSID] = &r
}

// backgroundScanTick implements the roaming single-AP driver's periodic
// off-channel peek while dwelling on its associated AP's channel.
func (d *Driver) backgroundScanTick() {
	d.bgScanEv = sim.Event{}
	if d.stopped {
		return
	}
	d.backgroundScanVisit()
	d.bgScanEv = d.kernel.FireAfter(d.pol.bgScanEvery, d, timerBGScan)
}

func (d *Driver) backgroundScanVisit() {
	if !d.sc.Dwelling || d.sc.Switching {
		return
	}
	home := d.radio.Channel()
	if home == 0 {
		return
	}
	// Visit the next scheduled channel that is not home.
	target := 0
	for i := 1; i <= len(d.cfg.Schedule); i++ {
		ch := d.cfg.Schedule[(d.sc.SchedIdx+i)%len(d.cfg.Schedule)].Channel
		if ch != home {
			target = ch
			d.sc.SchedIdx = (d.sc.SchedIdx + i) % len(d.cfg.Schedule)
			break
		}
	}
	if target == 0 {
		return
	}
	d.sc.BGHome = home
	d.switchTo(target)
	d.bgReturnEv = d.kernel.FireAfter(d.pol.bgScanDwell, d, timerBGReturn)
}

// backgroundReturn ends a background-scan visit.
func (d *Driver) backgroundReturn() {
	d.bgReturnEv = sim.Event{}
	if d.sc.Dwelling && !d.stopped { // still associated: come home
		d.switchTo(d.sc.BGHome)
	}
}

// Addr returns the client MAC address.
func (d *Driver) Addr() wifi.Addr { return d.radio.Addr() }

// Stats returns a snapshot of the counters.
func (d *Driver) Stats() Stats {
	s := d.sc.Stats
	s.BlacklistEvictions = d.table.evictions
	return s
}

// Invariants exposes the driver's invariant-violation counters (shared
// with every interface's joiner and DHCP client).
func (d *Driver) Invariants() *metrics.InvariantSet { return d.inv }

// AttachObs wires this driver into an observability sink: join/assoc/
// switch latency histograms plus trace spans for dwells, switches, and
// join lifecycle. Safe to skip entirely — a driver with no obs attached
// runs byte-identically to one with it, because the instrumentation
// never draws RNG, never schedules events, and only reads state the
// driver already maintains.
func (d *Driver) AttachObs(o *obs.Obs) {
	if o == nil {
		return
	}
	d.tr = o.Tracer
	d.hAssoc = o.Reg.Histogram("spider_assoc_seconds",
		"Successful link-layer association durations.")
	d.hJoin = o.Reg.Histogram("spider_join_seconds",
		"Successful full-join (assoc+DHCP) durations.")
	d.hSwitch = o.Reg.Histogram("spider_switch_latency_seconds",
		"Modeled channel-switch latencies (PSM + reset + polls).")
	d.sc.DwellStart = d.kernel.Now()
}

// Stalled returns a non-empty reason when the driver looks wedged: a
// switch that never completed, a dwell with nothing to dwell on, or a
// stopped channel rotation. Transient states trip it too (a switch IS
// in flight for a few ms), so the invariant checker requires the same
// reason across consecutive polls with no intervening switches before
// declaring a deadlock.
func (d *Driver) Stalled() string {
	if !d.sc.Started {
		// A dormant driver is healthy exactly while its admission alarm is
		// pending (or after retirement); dormant with no alarm is wedged.
		if d.startEv.Pending() || d.stopped {
			return ""
		}
		return "dormant with no admission alarm"
	}
	if d.sc.Switching {
		return "channel switch in flight"
	}
	if d.sc.Dwelling && len(d.ifaces) == 0 {
		return "dwelling with no interfaces"
	}
	if !d.sc.Dwelling && len(d.cfg.Schedule) > 1 && !d.sliceEv.Pending() {
		return "channel rotation stopped"
	}
	return ""
}

// Interfaces returns the live virtual interfaces, ordered by BSSID.
// Deterministic order is load-bearing: map-order iteration would make
// frame emission order (and therefore whole runs) irreproducible.
// Callers own the returned slice; hot internal paths use liveIfaces.
func (d *Driver) Interfaces() []*Iface {
	out := make([]*Iface, 0, len(d.ifaces))
	for _, ifc := range d.ifaces {
		out = append(out, ifc)
	}
	sortIfaces(out)
	return out
}

// liveIfaces is Interfaces into a reused scratch slice: same determinism,
// no allocation. The result is valid until the next liveIfaces call, so
// nothing reachable from a loop over it may call liveIfaces again:
// callers must not start joins or re-enter the switch path
// mid-iteration. Teardown may run (it deletes from the map, and the AP
// slicer it calls filters the map into its own scratch).
func (d *Driver) liveIfaces() []*Iface {
	s := d.ifScratch[:0]
	for _, ifc := range d.ifaces {
		s = append(s, ifc)
	}
	sortIfaces(s)
	d.ifScratch = s
	return s
}

// sortIfaces orders interfaces by BSSID with an insertion sort: interface
// counts are tiny (MaxInterfaces-bounded) and sort.Slice's reflection
// closure would allocate on every call.
func sortIfaces(s []*Iface) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && lessAddr(s[j].BSSID(), s[j-1].BSSID()); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func lessAddr(a, b wifi.Addr) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// ConnectedCount returns how many interfaces hold leases.
func (d *Driver) ConnectedCount() int {
	n := 0
	for _, ifc := range d.ifaces {
		if ifc.Connected() {
			n++
		}
	}
	return n
}

// KnownAPs returns the scan table contents.
func (d *Driver) KnownAPs() []*APRecord { return d.table.all() }

// ForceSwitch performs an immediate channel switch outside the static
// schedule — micro-benchmark machinery for Table 1. It returns the
// switch's modeled latency (PSM announcements + hardware reset +
// PS-polls) and how many connected interfaces it announced PSM to;
// ok is false when the radio already sits on ch and no switch is made.
func (d *Driver) ForceSwitch(ch int) (latency time.Duration, connected int, ok bool) {
	return d.switchTo(ch)
}

// ---- Scheduler ----

func (d *Driver) nextSlice() {
	d.sliceEv = sim.Event{}
	if d.stopped {
		return
	}
	if d.sc.Dwelling {
		// Pinned to a connected AP's channel (multi-channel single-AP
		// mode); the rotation resumes on disconnect.
		return
	}
	if d.sc.Switching {
		// The previous switch is still in flight at this slice boundary:
		// the schedule asked for a dwell shorter than the switch costs.
		d.sc.Stats.DwellOverruns++
		if d.tr != nil {
			d.tr.Instant("core.dwell", "overrun")
		}
	}
	prevCh := d.cfg.Schedule[d.sc.SchedIdx].Channel
	d.sc.SchedIdx = (d.sc.SchedIdx + 1) % len(d.cfg.Schedule)
	next := d.cfg.Schedule[d.sc.SchedIdx]
	d.sliceEv = d.kernel.FireAfter(next.Dwell, d, timerSlice)
	if d.tr != nil {
		d.tr.Complete("core.dwell", "ch"+strconv.Itoa(prevCh), d.sc.DwellStart)
	}
	d.sc.DwellStart = d.kernel.Now()
	d.switchTo(next.Channel)
}

// psmLinger is the pause after the PSM announcements are acknowledged:
// the AP may have one frame already committed to its MAC, and resetting
// under it would throw away a TCP segment every single departure.
const psmLinger = 3 * time.Millisecond

// Modeled airtime of the fixed-size null frames the switch latency
// accounts for — computed once, not per frame.
var (
	nullUnicastTxTime   = wifi.TxTime(&wifi.Frame{Type: wifi.TypeNull})
	nullBroadcastTxTime = wifi.TxTime(&wifi.Frame{Type: wifi.TypeNull, DA: wifi.Broadcast})
)

// switchTo performs Spider's channel switch: PSM-announce to every
// connected AP on the old channel, hardware reset, then PS-poll the
// connected APs on the new channel and drain its transmit queue.
//
// A switch that starts while another is in flight supersedes it: the
// earlier switch's pending linger/retune is cancelled and its straggling
// PSM completions are ignored (generation guard), so the radio ends up
// wherever the newest switch points. It returns what ForceSwitch does.
func (d *Driver) switchTo(ch int) (latency time.Duration, connected int, ok bool) {
	from := d.radio.Channel()
	if from == ch && !d.sc.Switching {
		return 0, 0, false
	}
	d.sc.SwGen++
	d.swLingerEv.Cancel()
	d.swLingerEv = sim.Event{}
	d.swRetuneEv.Cancel()
	d.swRetuneEv = sim.Event{}
	d.sc.Switching = true
	d.sc.SwCh = ch
	d.sc.SwOutstanding = 0
	ifaces := d.liveIfaces()
	// Announce power-save to connected APs on the old channel so they
	// buffer for us while we are away. The hardware reset waits for these
	// frames to actually clear the air — resetting under them would flush
	// the announcement and leave the AP transmitting to nobody.
	for _, ifc := range ifaces {
		if ifc.Channel() == from && ifc.sc.State >= IfaceDHCP {
			connected++
			d.sc.SwOutstanding++
			psm := d.pool.Frame()
			psm.Type = wifi.TypeNull
			psm.SA, psm.DA, psm.BSSID = d.Addr(), ifc.BSSID(), ifc.BSSID()
			psm.PowerMgmt = true
			psm.Seq = d.nextSeq()
			ifc.sc.PSMOn = true
			latency += nullUnicastTxTime
			d.radio.SendTagged(psm, radio.TxTag{Kind: radio.TagPSM, Gen: d.sc.SwGen})
		}
	}
	latency += d.pol.resetBase
	// Collect the polls we will owe on the new channel.
	d.swPolls = d.swPolls[:0]
	for _, ifc := range ifaces {
		if ifc.Channel() == ch && ifc.sc.State >= IfaceDHCP {
			d.swPolls = append(d.swPolls, ifc)
		}
	}
	latency += time.Duration(len(d.swPolls)) * nullBroadcastTxTime
	d.sc.Stats.Switches++
	d.hSwitch.Observe(latency.Seconds())
	if d.tr != nil {
		d.tr.Instant("core.switch", "switch",
			obs.I("from", int64(from)), obs.I("to", int64(ch)),
			obs.D("latency", latency), obs.I("connected", int64(connected)))
	}
	// A fault-injected flaky chipset can stretch this reset; the modeled
	// latency above keeps the healthy figure — the stretch is the fault.
	reset := d.pol.resetBase
	if stuck := d.host.ResetDelay(); stuck > 0 {
		d.sc.Stats.ResetFaults++
		reset += stuck
	}
	d.sc.SwReset = reset
	if d.sc.SwOutstanding == 0 {
		d.beginReset()
	}
	return latency, connected, true
}

// TxDone implements radio.Receiver: a PSM announcement of switch
// generation tag.Gen has left the air. A completion from a superseded
// switch sees a newer generation and does nothing.
func (d *Driver) TxDone(tag radio.TxTag, _ bool) {
	if d.sc.SwGen != tag.Gen {
		return
	}
	d.sc.SwOutstanding--
	if d.sc.SwOutstanding == 0 {
		d.beginReset()
	}
}

// beginReset starts a switch's last stage once its PSM announcements
// are out: linger for the APs to take them, then retune.
func (d *Driver) beginReset() {
	d.swLingerEv = d.kernel.FireAfter(psmLinger, d, timerLinger)
}

// linger ends a switch's PSM linger by starting the radio's retune.
func (d *Driver) linger() {
	d.swLingerEv = sim.Event{}
	if d.stopped {
		return
	}
	d.swRetuneEv = d.radio.Retune(d.sc.SwCh, d.sc.SwReset, d, timerArrive)
}

// arrive completes the in-flight switch: wake the connected APs on the
// new channel, drain its transmit queue, and probe. Reads the sw* fields
// rather than closure captures; superseded switches never get here (their
// retune event was cancelled).
func (d *Driver) arrive() {
	d.swRetuneEv = sim.Event{}
	d.sc.Switching = false
	if d.stopped {
		// Shut down while the retune was in flight: stay deaf.
		d.radio.SetChannel(0)
		return
	}
	// Wake the APs on this channel: PSM off flushes their buffers. The
	// map check skips interfaces torn down (and possibly recycled toward
	// a different AP — psmOn is cleared on reuse) while we were away.
	for _, ifc := range d.swPolls {
		if ifc.sc.PSMOn && d.ifaces[ifc.BSSID()] == ifc {
			wake := d.pool.Frame()
			wake.Type = wifi.TypeNull
			wake.SA, wake.DA, wake.BSSID = d.Addr(), ifc.BSSID(), ifc.BSSID()
			wake.Seq = d.nextSeq()
			d.radio.Send(wake)
			ifc.sc.PSMOn = false
		}
	}
	d.swPolls = d.swPolls[:0]
	d.drainTxQueue(d.sc.SwCh)
	d.probe()
}

func (d *Driver) nextSeq() uint16 {
	d.sc.Seq++
	return d.sc.Seq
}

// ---- Scanning ----

func (d *Driver) scanTick() {
	d.scanEv = sim.Event{}
	if d.stopped {
		return
	}
	d.probe()
	d.scanEv = d.kernel.FireAfter(d.pol.scanInterval, d, timerScan)
}

// probe sends a wildcard probe request on the current channel
// (opportunistic scanning also picks up beacons passively).
func (d *Driver) probe() {
	if d.radio.Channel() == 0 {
		return
	}
	d.sc.Stats.ProbesSent++
	f := d.pool.Frame()
	f.Type = wifi.TypeProbeReq
	f.SA, f.DA, f.BSSID = d.Addr(), wifi.Broadcast, wifi.Broadcast
	f.Seq = d.nextSeq()
	f.Body = d.pool.Probe()
	d.radio.Send(f)
}

// ---- Join pipeline ----

// maybeJoin starts joins toward the best candidates on the current
// channel, respecting the interface budget.
func (d *Driver) maybeJoin() {
	if d.sc.Switching || d.stopped {
		return
	}
	ch := d.radio.Channel()
	if ch == 0 {
		return
	}
	budget := d.cfg.MaxInterfaces - len(d.ifaces)
	if budget <= 0 {
		return
	}
	now := d.kernel.Now()
	if now < d.sc.IdleUntil {
		return
	}
	for _, rec := range d.table.candidates(ch, now, 2*time.Second, d.cfg.UseHistory) {
		if budget <= 0 {
			return
		}
		if _, exists := d.ifaces[rec.BSSID]; exists {
			continue
		}
		d.startJoin(rec)
		budget--
	}
}

func (d *Driver) startJoin(rec *APRecord) {
	now := d.kernel.Now()
	bssid := rec.BSSID
	var ifc *Iface
	if n := len(d.ifaceFree); n > 0 {
		// Recycle a torn-down interface: same joiner and DHCP client
		// objects, reset to the state fresh ones would have. Their RNG
		// streams are named and persistent in the kernel, so reuse draws
		// exactly what fresh construction would.
		ifc = d.ifaceFree[n-1]
		d.ifaceFree = d.ifaceFree[:n-1]
		ifc.rec = rec
		ifc.sc = ifaceScalars{}
		ifc.renewEv = sim.Event{}
		ifc.joiner.ResetTarget(bssid, rec.SSID)
		ifc.dhcpc.Reset()
		ifc.joiner.SetTracer(d.tr)
		ifc.dhcpc.SetTracer(d.tr)
	} else {
		ifc = d.newIface(rec)
	}
	ifc.sc.State = IfaceJoining
	ifc.sc.JoinStart, ifc.sc.LastHeard = now, now
	d.ifaces[bssid] = ifc
	rec.Attempts++
	d.sc.Stats.AssocAttempts++
	// Single-association roaming drivers (stock and Spider's config 4)
	// stop scanning while a join is in progress: the rotation resumes
	// only if the attempt fails.
	if d.cfg.Mode == MultiChannelSingleAP || d.cfg.Mode == StockWiFi {
		d.sc.Dwelling = true
	}
	ifc.joiner.Start()
}

// newIface builds an interface toward rec's AP with its joiner and DHCP
// client wired to this driver: the interface hosts both, so frames leave
// through the per-channel transmit path from the medium's pool and
// outcomes come back to the driver; violations and trace spans land in
// the driver's sinks. Both a fresh join and a checkpoint restore build
// interfaces here. The host methods read ifc.rec at call time, so they
// stay correct across recycles.
func (d *Driver) newIface(rec *APRecord) *Iface {
	ifc := &Iface{d: d, rec: rec}
	ifc.joiner.Init(d.kernel, d.cfg.Join, d.Addr(), rec.BSSID, rec.SSID, ifc)
	ifc.dhcpc.Init(d.kernel, d.cfg.DHCP, d.Addr(), ifc)
	ifc.joiner.SetPool(d.pool)
	ifc.joiner.SetInvariants(d.inv)
	ifc.dhcpc.SetInvariants(d.inv)
	ifc.joiner.SetTracer(d.tr)
	ifc.dhcpc.SetTracer(d.tr)
	return ifc
}

// sendDHCP wraps a DHCP client message in a pooled data frame toward the
// interface's AP. The message is the client's send scratch — encoded
// here, never retained.
func (d *Driver) sendDHCP(ifc *Iface, m *dhcp.Message) {
	bssid := ifc.rec.BSSID
	db := d.pool.Data()
	db.Proto = wifi.ProtoDHCP
	db.Header = m.AppendEncode(db.Header[:0])
	db.VirtualLen = dhcp.WireOverhead
	f := d.pool.Frame()
	f.Type = wifi.TypeData
	f.SA, f.DA, f.BSSID = d.Addr(), bssid, bssid
	f.Body = db
	d.transmit(ifc.rec.Channel, f)
}

func (d *Driver) onAssocResult(ifc *Iface, res mac.AssocResult) {
	d.host.AssocResult(ifc.BSSID(), res)
	if !res.Success {
		d.failJoin(ifc)
		return
	}
	d.sc.Stats.AssocSuccesses++
	d.hAssoc.Observe(res.Elapsed.Seconds())
	ifc.sc.State = IfaceDHCP
	ifc.sc.LastHeard = d.kernel.Now()
	d.sc.Stats.DHCPAttempts++
	var cached dhcp.IP
	if d.cfg.UseLeaseCache {
		cached = ifc.rec.CachedLease(d.kernel.Now())
	}
	if cached != 0 {
		// Re-association with a cached lease: the REQUEST-first start IS
		// the revalidation — a rebooted server NAKs it and the client
		// falls back to discovery inside the same attempt window.
		d.sc.Stats.LeaseRevalidations++
	}
	ifc.dhcpc.Start(cached)
}

func (d *Driver) onDHCPResult(ifc *Iface, res dhcp.Result) {
	if ifc.sc.Renewing {
		d.onRenewResult(ifc, res)
		return
	}
	elapsed := d.kernel.Now() - ifc.sc.JoinStart
	d.host.JoinResult(ifc.BSSID(), res.Success, elapsed)
	if !res.Success {
		d.sc.Stats.DHCPFailures++
		if d.pol.globalIdle > 0 {
			d.sc.IdleUntil = d.kernel.Now() + d.pol.globalIdle
		}
		d.failJoin(ifc)
		return
	}
	d.sc.Stats.DHCPSuccesses++
	d.sc.Stats.JoinSuccesses++
	if res.FastPath {
		d.sc.Stats.FastPathJoins++
	}
	if d.ConnectedCount() > 0 {
		d.sc.Stats.SoftHandoffs++
	}
	rec := ifc.rec
	rec.Successes++
	rec.ConsecFails = 0
	rec.TotalJoin += elapsed
	rec.LeaseIP = res.IP
	rec.LeaseExpiry = d.kernel.Now() + res.LeaseDur
	d.hJoin.Observe(elapsed.Seconds())
	if d.tr != nil {
		d.tr.Instant("core.join", "connected",
			obs.S("bssid", ifc.BSSID().String()), obs.D("elapsed", elapsed))
	}
	ifc.sc.State = IfaceConnected
	ifc.sc.IP = res.IP
	ifc.sc.LastHeard = d.kernel.Now()
	// Multi-channel single-AP: dwell on this AP's channel.
	if d.cfg.Mode == MultiChannelSingleAP || d.cfg.Mode == StockWiFi {
		d.sc.Dwelling = true
	}
	d.scheduleRenewal(ifc, res.LeaseDur)
	d.host.Connected(ifc)
}

// scheduleRenewal arms the RFC 2131 T1 timer: halfway through the lease
// the client re-REQUESTs its address. Mostly moot on vehicular
// encounters (hour leases, second encounters), but stationary clients —
// the quickstart, the labs — hold leases indefinitely through it.
func (d *Driver) scheduleRenewal(ifc *Iface, lease time.Duration) {
	if lease <= 0 {
		return
	}
	ifc.renewEv.Cancel()
	ifc.renewEv = d.kernel.FireAfter(lease/2, ifc, 0)
}

// renew is the T1 renewal timer's firing (through Iface.Fire). It reads
// ifc fields at fire time and guards on the interface map, so it stays
// correct across interface recycles.
func (d *Driver) renew(ifc *Iface) {
	ifc.renewEv = sim.Event{}
	if !ifc.Connected() || d.ifaces[ifc.BSSID()] != ifc {
		return
	}
	ifc.sc.Renewing = true
	d.sc.Stats.Renewals++
	ifc.dhcpc.Start(ifc.sc.IP)
}

// onRenewResult finishes a T1 renewal: success extends the lease (and
// the cache); failure means the server no longer honors the address —
// the association is torn down so a clean rejoin can happen.
func (d *Driver) onRenewResult(ifc *Iface, res dhcp.Result) {
	ifc.sc.Renewing = false
	if !res.Success || res.IP != ifc.sc.IP {
		d.sc.Stats.RenewalFailures++
		d.teardown(ifc)
		return
	}
	ifc.rec.LeaseIP = res.IP
	ifc.rec.LeaseExpiry = d.kernel.Now() + res.LeaseDur
	d.scheduleRenewal(ifc, res.LeaseDur)
}

func (d *Driver) failJoin(ifc *Iface) {
	if d.tr != nil {
		d.tr.Instant("core.join", "failed", obs.S("bssid", ifc.BSSID().String()))
	}
	d.applyFailBackoff(ifc.rec)
	d.teardown(ifc)
}

// applyFailBackoff escalates an AP's hold-down after a failed join and
// quarantines it once the retry budget is spent.
func (d *Driver) applyFailBackoff(rec *APRecord) {
	rec.ConsecFails++
	now := d.kernel.Now()
	if rec.ConsecFails >= d.pol.maxConsecFails {
		// Retry budget exhausted: quarantine the AP. The duration doubles
		// with each successive quarantine (capped at 4× base) and carries
		// ±25% jitter so a fleet of crashed APs does not come back — and
		// fail again — in lockstep.
		rec.Quarantines++
		q := d.pol.quarantine
		shift := rec.Quarantines - 1
		if shift > 2 {
			shift = 2
		}
		q <<= uint(shift)
		q += time.Duration((d.backoffRNG.Float64()*0.5 - 0.25) * float64(q))
		rec.BlacklistUntil = now + q
		rec.HoldUntil = rec.BlacklistUntil
		rec.ConsecFails = 0
		d.sc.Stats.Blacklisted++
		if d.tr != nil {
			d.tr.Instant("core.fault", "quarantine",
				obs.S("bssid", rec.BSSID.String()), obs.D("for", q))
		}
	} else {
		// First failure keeps the plain hold-down; repeats escalate
		// exponentially (with jitter) up to the cap.
		hold := d.pol.holdDown
		if rec.ConsecFails >= 2 {
			shift := rec.ConsecFails - 1
			if shift > 6 {
				shift = 6
			}
			hold <<= uint(shift)
			if hold > d.pol.backoffCap {
				hold = d.pol.backoffCap
			}
			hold += time.Duration((d.backoffRNG.Float64()*0.4 - 0.2) * float64(hold))
		}
		rec.HoldUntil = now + hold
	}
}

// teardown removes an interface, cancelling every timer it owns and
// purging its queued frames — after it returns, nothing may fire into
// the dead interface. The host hears of it (Disconnected) only for an
// interface that was connected.
func (d *Driver) teardown(ifc *Iface) {
	bssid := ifc.BSSID()
	if d.ifaces[bssid] != ifc {
		return
	}
	wasConnected := ifc.Connected()
	ifc.joiner.Abort()
	ifc.dhcpc.Abort()
	ifc.renewEv.Cancel()
	ifc.renewEv = sim.Event{}
	if ifc.TimersPending() {
		d.inv.Violate("core.teardown.timer-leak")
	}
	delete(d.ifaces, bssid)
	// Purge this interface's frames from its channel's queue: they
	// would otherwise hit a dead (or rebooted) AP on the next visit.
	ch := ifc.Channel()
	kept := d.txq[:0]
	for _, qf := range d.txq {
		if qf.ch == ch && qf.f.DA == bssid {
			d.sc.Stats.TeardownPurged++
			continue
		}
		kept = append(kept, qf)
	}
	clear(d.txq[len(kept):])
	d.txq = kept
	if wasConnected {
		d.sc.Stats.Disconnects++
		if d.tr != nil {
			d.tr.Instant("core.join", "disconnect", obs.S("bssid", bssid.String()))
		}
		// Best-effort deauth so the AP frees state.
		df := d.pool.Frame()
		df.Type = wifi.TypeDeauth
		df.SA, df.DA, df.BSSID = d.Addr(), bssid, bssid
		df.Seq = d.nextSeq()
		df.Body = deauthLeavingBody
		d.transmit(ifc.Channel(), df)
		d.host.Disconnected(ifc)
	}
	// Resume rotation once nothing is joined or joining anymore.
	if d.sc.Dwelling && len(d.ifaces) == 0 && d.ConnectedCount() == 0 {
		d.sc.Dwelling = false
		if len(d.cfg.Schedule) > 1 && !d.sliceEv.Pending() {
			d.sliceEv = d.kernel.FireAfter(0, d, timerSlice)
		}
	}
	// FatVAP-style slicing: hand the dead vAP's slice to the survivors
	// immediately instead of idling the channel until the next tick.
	if d.cfg.APCentric && wasConnected && !d.sc.Switching {
		d.apSliceRebalance()
	}
	// Recycle the interface (and its joiner/DHCP machines) for the next
	// join. Safe because nothing retains *Iface past teardown: the host
	// hears of it synchronously, and the switch path's stale references
	// guard on psmOn (cleared on reuse) plus the interface map.
	d.ifaceFree = append(d.ifaceFree, ifc)
}

// inactivityTick drops interfaces whose AP has gone silent (range exit).
func (d *Driver) inactivityTick() {
	d.inactEv = sim.Event{}
	if d.stopped {
		return
	}
	now := d.kernel.Now()
	for _, ifc := range d.liveIfaces() {
		if now-ifc.sc.LastHeard > d.pol.inactivity {
			if ifc.Connected() {
				d.teardown(ifc)
			} else {
				d.failJoin(ifc)
			}
		}
	}
	d.inactEv = d.kernel.FireAfter(time.Second, d, timerInactivity)
}

// ---- Data plane ----

// transmit sends f now if the radio is tuned to ch, otherwise queues it
// on the per-channel transmit queue (bounded) to be drained on the next
// visit. This is Spider's "one packet queue per channel that is swapped
// in and out of the driver".
func (d *Driver) transmit(ch int, f *wifi.Frame) {
	if d.radio.Channel() == ch && !d.sc.Switching {
		d.radio.Send(f)
		return
	}
	// The whole queue bounds any one channel's share, so only a queue
	// that long needs the per-channel count.
	if len(d.txq) >= d.pol.txQueueFrames && d.queuedOn(ch) >= d.pol.txQueueFrames {
		d.sc.Stats.TxQueueDrops++
		return
	}
	if d.txq == nil {
		d.txq = make([]queuedFrame, 0, txqFirst)
	}
	d.txq = append(d.txq, queuedFrame{f: f, ch: ch})
}

// txqFirst is the capacity of a transmit queue's first backing. A
// joining driver queues a few frames per channel visit, so a queue
// that started empty would grow 1, 2, 4, 8 on the first joins; eight
// holds most visits' frames, and the queue never shrinks.
const txqFirst = 8

// queuedOn counts the frames queued for ch.
func (d *Driver) queuedOn(ch int) int {
	n := 0
	for _, qf := range d.txq {
		if qf.ch == ch {
			n++
		}
	}
	return n
}

// drainTxQueue sends ch's queued frames in queue order and keeps the
// other channels' frames, in order. The queue is compacted in place
// while it is read: Send never calls back into the driver's transmit.
func (d *Driver) drainTxQueue(ch int) {
	kept := d.txq[:0]
	for _, qf := range d.txq {
		if qf.ch != ch {
			kept = append(kept, qf)
			continue
		}
		d.radio.Send(qf.f)
	}
	clear(d.txq[len(kept):])
	d.txq = kept
}

// Uplink sends a data payload toward the given AP (queued per channel if
// the radio is elsewhere). Reports false if no interface exists for the
// BSSID.
func (d *Driver) Uplink(bssid wifi.Addr, db *wifi.DataBody) bool {
	ifc, ok := d.ifaces[bssid]
	if !ok {
		return false
	}
	d.sc.Stats.UplinkFrames++
	f := d.pool.Frame()
	f.Type = wifi.TypeData
	f.SA, f.DA, f.BSSID = d.Addr(), bssid, bssid
	f.Seq = d.nextSeq()
	f.Body = db
	d.transmit(ifc.Channel(), f)
	return true
}

// ---- Receive path ----

// RadioReceive implements radio.Receiver: every frame the radio hears
// enters the driver here.
func (d *Driver) RadioReceive(f *wifi.Frame) {
	if d.stopped {
		return
	}
	now := d.kernel.Now()
	switch f.Type {
	case wifi.TypeBeacon, wifi.TypeProbeResp:
		body, ok := f.Body.(*wifi.BeaconBody)
		if !ok {
			return
		}
		d.table.observe(f.BSSID, body.SSID, int(body.Channel), now, f.Halo)
		if ifc, ok := d.ifaces[f.BSSID]; ok {
			ifc.sc.LastHeard = now
		}
		d.maybeJoin()
	case wifi.TypeAuthResp, wifi.TypeAssocResp, wifi.TypeDeauth:
		if ifc, ok := d.ifaces[f.SA]; ok {
			ifc.sc.LastHeard = now
			ifc.joiner.HandleFrame(f)
			if f.Type == wifi.TypeDeauth && ifc.Connected() {
				d.teardown(ifc)
			}
		}
	case wifi.TypeData:
		db, ok := f.Body.(*wifi.DataBody)
		if !ok {
			return
		}
		ifc, known := d.ifaces[f.SA]
		if known {
			ifc.sc.LastHeard = now
		}
		if db.Proto == wifi.ProtoDHCP {
			if known {
				if dhcp.DecodeMessageInto(&d.dhcpMsg, db.Header) {
					ifc.dhcpc.HandleMessage(&d.dhcpMsg)
				}
			}
			return
		}
		if !known {
			return
		}
		d.sc.Stats.DownlinkFrames++
		d.sc.Stats.DownlinkBytes += uint64(db.BodySize())
		d.host.Downlink(f.SA, db)
	}
}

// Airtime returns the physical radio's accumulated state occupancy
// (transmit/receive/reset), the input for energy accounting.
func (d *Driver) Airtime() radio.Airtime { return d.radio.AirtimeStats() }
