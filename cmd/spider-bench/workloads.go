package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"spider/internal/archive"
	"spider/internal/core"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/shard"
)

// workload is one canonical run. A run measures a sequence of closed-loop
// ops, each started after the previous one finished, on instances the
// workload builds from the run's seed.
type workload struct {
	name string
	// inputs is how many distinct instances a run builds from its seed;
	// a run replays all of them, round after round.
	inputs int
	// ops is how many ops each instance runs.
	ops int
	// round is the op time of one round over the inputs on the reference
	// machine (2 vCPUs of a Xeon Sapphire Rapids KVM guest, Go 1.24); a run
	// measuring b seconds does as many whole rounds as fit in b, at least
	// one.
	round time.Duration
	// prefix is how many leading ops have their counters and archive
	// digest pinned: identical in every run of one seed, traced or not.
	prefix int
	// build creates one instance from its seed. Everything it does is
	// timed as set-up.
	build func(o options, seed int64, tr *tracer) instance
}

// instance is one built simulation a run advances op by op.
type instance interface {
	// warmup advances the instance to its measured state; timed as set-up.
	warmup() error
	// op advances one closed-loop op and returns the virtual time it
	// covered.
	op() (time.Duration, error)
	// check is the correctness gate, run after every op outside its timer.
	check() error
	// counts reads the deterministic counters accumulated so far.
	counts() counts
	// archive returns the encoded archive of the run so far, without
	// observability sections.
	archive() []byte
	// tiles is the shard layout's tile count (0 when the shard layer is
	// not used).
	tiles() int
}

// The canonical runs. Why each was chosen, and which layer it loads, is
// in README.md. Several inputs average out how much a random instance's
// cost depends on its seed; replays average out the machine.
var workloads = []workload{
	{name: "drive", inputs: 16, ops: 1, round: 3 * time.Second, prefix: 4, build: buildDrive},
	{name: "city", inputs: 6, ops: 20, round: 3 * time.Second, prefix: 20, build: fleetBuilder("city")},
	{name: "storm", inputs: 1, ops: 1, round: 1500 * time.Millisecond, prefix: 1, build: fleetBuilder("storm")},
	{name: "steady", inputs: 16, ops: 6, round: 10 * time.Second, prefix: 6, build: fleetBuilder("steady")},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// threeChannel is the paper's Spider configuration: multi-AP on channels
// 1, 6 and 11 with an equal 200 ms schedule.
var threeChannel = core.SpiderDefaults(core.MultiChannelMultiAP, core.EqualSchedule(200*time.Millisecond, 1, 6, 11))

// fleet sizes one sharded-city workload.
type fleet struct {
	areaM        float64
	aps, clients int
	parked       bool // clients stand still on channel 1
	backhaulKbps int  // every AP's wired rate; 0 draws the urban spread
	warmup       time.Duration
}

// fleets holds the full and the quick fixtures. The quick ones keep each
// workload's densities and shape at a size tests can afford.
//
// Steady gives every AP the same 1 Mbps backhaul. Under the urban spread a
// few channel-1 APs with fast backhaul saturate their radio, and the queues
// they never drain set the district's allocation rate, which then varies
// by about 15% from one random placement to the next; at 1 Mbps no AP
// saturates and it varies by about 5%.
var fleets = map[string][2]fleet{
	"city":   {{areaM: 6000, aps: 2000, clients: 200, warmup: 4 * time.Second}, {areaM: 2000, aps: 220, clients: 22, warmup: 2 * time.Second}},
	"storm":  {{areaM: 15000, aps: 12500, clients: 25000}, {areaM: 3000, aps: 500, clients: 1000}},
	"steady": {{areaM: 4000, aps: 1200, clients: 2000, parked: true, backhaulKbps: 1000, warmup: 10 * time.Second}, {areaM: 1000, aps: 75, clients: 125, parked: true, backhaulKbps: 1000, warmup: 5 * time.Second}},
}

func (f fleet) spec(seed int64) scenario.CityGridSpec {
	s := scenario.CityGrid(seed, f.aps, f.clients)
	s.AreaW, s.AreaH = f.areaM, f.areaM
	if f.parked {
		s.SpeedMS = 0
	}
	if f.backhaulKbps > 0 {
		s.BackhaulKbps = func(*rand.Rand) int { return f.backhaulKbps }
	}
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	s.Radio = rc
	return s
}

func fleetBuilder(name string) func(o options, seed int64, tr *tracer) instance {
	return func(o options, seed int64, tr *tracer) instance {
		f := fleets[name][0]
		if o.quick {
			f = fleets[name][1]
		}
		cfg := threeChannel
		if f.parked {
			cfg = core.SpiderDefaults(core.MultiChannelMultiAP, core.EqualSchedule(200*time.Millisecond, 1))
		}
		return &cityInst{
			c:    shard.NewCity(f.spec(seed), cfg, o.workers),
			warm: f.warmup,
			name: name,
			seed: seed,
			fp:   archive.FP("spider-bench", name, fmt.Sprintf("%+v", f)),
			tr:   tr,
		}
	}
}

// cityInst is a sharded city. Each op is one virtual second of City.Run:
// one barrier epoch, since every fleet's layout clamps its epoch to 1 s.
type cityInst struct {
	c          *shard.City
	warm       time.Duration
	name, fp   string
	seed       int64
	invariants uint64 // InvariantsTotal at the last check
	tr         *tracer
}

func (ci *cityInst) warmup() error { return ci.c.Run(ci.c.Now() + ci.warm) }

func (ci *cityInst) op() (time.Duration, error) {
	t0 := ci.c.Now()
	err := ci.c.Run(t0 + time.Second)
	return ci.c.Now() - t0, err
}

func (ci *cityInst) check() error {
	if q := ci.c.QuarantinedTiles(); len(q) > 0 {
		return fmt.Errorf("tiles %v quarantined", q)
	}
	prev := ci.invariants
	ci.invariants = ci.c.InvariantsTotal()
	if ci.invariants > prev {
		return fmt.Errorf("invariant violations rose from %d to %d", prev, ci.invariants)
	}
	return nil
}

func (ci *cityInst) counts() counts {
	var n counts
	for _, t := range ci.c.Tiles {
		n.addWorld(t.World)
	}
	n[cMigrations] = ci.c.Migrations
	return n
}

func (ci *cityInst) archive() []byte {
	defer ci.tr.begin("archive.encode")()
	a := archive.New(ci.seed, ci.fp)
	expID := archive.SubID(a.RunID, "experiment/"+ci.name, 0)
	a.Experiments = append(a.Experiments, archive.CityExperiment(expID, ci.name, "", ci.c, ci.c.Now()))
	return a.Encode()
}

func (ci *cityInst) tiles() int { return ci.c.Layout.NTiles }

// buildDrive builds the paper's §4.3 run: a 3-channel Spider client on
// the Amherst loop with the spider-sim radio (24 Mbps, 8% loss, edge
// fading from 55% of range).
func buildDrive(o options, seed int64, tr *tracer) instance {
	spec := scenario.AmherstDrive(seed)
	rc := radio.Defaults()
	rc.DataRateKbps = 24_000
	rc.Loss = 0.08
	rc.EdgeStart = 0.55
	spec.Radio = rc
	dur := 10 * time.Minute
	if o.quick {
		dur = time.Minute
	}
	w, mob := spec.Build()
	return &driveInst{
		w: w, cl: w.AddClient(threeChannel, mob), seed: seed, dur: dur, tr: tr,
		fp: archive.FP("spider-bench", "drive", dur.String()),
	}
}

// driveInst is one drive; its single op runs the whole drive and encodes
// the drive's archive, as spider-sim -archive-out does.
type driveInst struct {
	w    *scenario.World
	cl   *scenario.Client
	seed int64
	dur  time.Duration
	fp   string
	enc  []byte
	tr   *tracer
}

func (d *driveInst) warmup() error { return nil }

func (d *driveInst) op() (time.Duration, error) {
	d.w.Run(d.dur)
	end := d.tr.begin("archive.encode")
	a := archive.New(d.seed, d.fp)
	expID := archive.SubID(a.RunID, "experiment/drive[0]", 0)
	exp := archive.Experiment{ID: expID, Name: "drive[0]"}
	exp.Clients = append(exp.Clients, archive.ClientLedgerFrom(expID, 0, d.cl))
	for _, r := range []struct {
		key string
		v   float64
	}{
		{"throughput_KBps", d.cl.Rec.ThroughputKBps(d.dur)},
		{"connectivity", d.cl.Rec.Connectivity(d.dur)},
	} {
		v := r.v
		exp.Results = append(exp.Results, archive.Result{
			ID: archive.SubID(expID, "result", len(exp.Results)), Name: "drive", Key: r.key, Num: &v,
		})
	}
	a.Experiments = append(a.Experiments, exp)
	d.enc = a.Encode()
	end()
	return d.dur, nil
}

func (d *driveInst) check() error {
	if kbps, conn := d.cl.Rec.ThroughputKBps(d.dur), d.cl.Rec.Connectivity(d.dur); kbps <= 0 || conn <= 0 {
		return fmt.Errorf("drive came out empty: throughput %.3f KB/s, connectivity %.3f", kbps, conn)
	}
	if inv := d.cl.InvariantsTotal(); inv > 0 {
		return fmt.Errorf("%d invariant violations", inv)
	}
	return nil
}

func (d *driveInst) counts() counts {
	var n counts
	n.addWorld(d.w)
	return n
}

func (d *driveInst) archive() []byte { return d.enc }

func (d *driveInst) tiles() int { return 0 }

// Deterministic counters, read through the layers' public accessors.
const (
	cEvents = iota
	cTx
	cDelivered
	cLost
	cMissedAway
	cOutOfRange
	cCSDeferred
	cHalo
	cAssocGrants
	cDiscovers
	cAcks
	cAssocAttempts
	cAssocSuccesses
	cDHCPAttempts
	cDHCPSuccesses
	cJoins
	cSwitches
	cSegments
	cRetx
	cGoodput
	cMigrations
	cRxBytes       // bytes the clients' recorders credited
	cClientSeconds // client × virtual seconds simulated
	cBusySeconds   // of which the client received data
	nCounts
)

type counts [nCounts]uint64

func (n *counts) add(o counts) {
	for i := range n {
		n[i] += o[i]
	}
}

func (n counts) minus(o counts) counts {
	for i := range n {
		n[i] -= o[i]
	}
	return n
}

// addWorld adds one world's kernel, medium, AP, DHCP-server and client
// counters.
func (n *counts) addWorld(w *scenario.World) {
	n[cEvents] += w.Kernel.Fired()
	st := w.Medium.Stats()
	n[cTx] += st.Transmitted
	n[cDelivered] += st.Delivered
	n[cLost] += st.LostRandom
	n[cMissedAway] += st.MissedAway
	n[cOutOfRange] += st.OutOfRange
	n[cCSDeferred] += st.CSDeferred
	n[cHalo] += st.HaloInjected
	for _, node := range w.APs {
		n[cAssocGrants] += node.AP.AssocGrants
		srv := node.AP.DHCPServer()
		n[cDiscovers] += srv.Discovers
		n[cAcks] += srv.Acks
	}
	now := w.Kernel.Now()
	secs := uint64(now / time.Second)
	for _, cl := range w.Clients {
		s := cl.Stats()
		n[cAssocAttempts] += s.AssocAttempts
		n[cAssocSuccesses] += s.AssocSuccesses
		n[cDHCPAttempts] += s.DHCPAttempts
		n[cDHCPSuccesses] += s.DHCPSuccesses
		n[cJoins] += s.JoinSuccesses
		n[cSwitches] += s.Switches
		tcp := cl.TCPStats()
		n[cSegments] += tcp.SegmentsSent
		n[cRetx] += tcp.RetxSegments
		n[cGoodput] += tcp.BytesAcked
		n[cRxBytes] += uint64(cl.Rec.TotalBytes())
		n[cClientSeconds] += secs
		n[cBusySeconds] += uint64(math.Round(cl.Rec.Connectivity(now) * float64(secs)))
	}
}
