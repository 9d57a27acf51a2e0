package radio

// Tests for the bound-decided range check (Radio.within): deciding from
// a mobile's cached sample and its speed bound must answer exactly what
// sampling the mobility model answers, whatever the model, the instant,
// the age of the sample or the geometry.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"spider/internal/geo"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// boundProbe is one mobile on its own medium, with its position cache
// holding the sample taken at t1 and the kernel clock at t2.
type boundProbe struct {
	mob   geo.Mobility
	r     *Radio
	calls int // samples of mob taken by the medium
	// the cache as the sample at t1 left it
	val          geo.Point
	at           time.Duration
	fixed        bool
	t2           time.Duration
	truth        geo.Point // mob at t2
	radii        [2]float64
	decidedIn    int
	decidedOut   int
	undecided    int
	disagreement string
}

// newBoundProbe registers a radio following mob, which declares its
// speed bound as mob.Speed(), samples it at t1 and advances the clock
// to t2.
func newBoundProbe(mob geo.Mobility, t1, t2 time.Duration) *boundProbe {
	k := sim.NewKernel(1)
	m := NewMedium(k, Defaults())
	b := &boundProbe{mob: mob, t2: t2, radii: [2]float64{m.cfg.Range, m.cfg.CSRange}}
	b.r = m.NewRadio(wifi.NewAddr(7, 1), counted{mob, &b.calls}, ReceiverFunc(func(*wifi.Frame) {}))
	k.Run(t1)
	b.r.position()
	b.val, b.at, b.fixed = b.r.posVal, b.r.posAt, b.r.posFixed
	k.Run(t2)
	b.truth = mob.PositionAt(t2)
	return b
}

// check compares within against the exact predicate for p and radius
// rad, from the t1 sample each time, and tallies how it decided.
func (b *boundProbe) check(p geo.Point, rad float64) bool {
	b.r.posVal, b.r.posAt, b.r.posValid, b.r.posFixed = b.val, b.at, true, b.fixed
	before := b.calls
	got := b.r.within(p, rad, b.t2)
	want := p.DistSq(b.truth) <= rad*rad
	switch {
	case b.calls != before || b.at == b.t2: // sampled, or the sample is current
		b.undecided++
	case got:
		b.decidedIn++
	default:
		b.decidedOut++
	}
	if got != want && b.disagreement == "" {
		b.disagreement = fmt.Sprintf("p=%v rad=%v: within=%v, exact=%v (sample %v at %v, truth %v at %v, distance to truth %.12g)",
			p, rad, got, want, b.val, b.at, b.truth, b.t2, p.Dist(b.truth))
	}
	return got == want
}

// slack is the distance the bound lets the radio have moved since t1.
func (b *boundProbe) slack() float64 {
	if v := b.mob.Speed(); v > 0 {
		return v * (b.t2 - b.at).Seconds()
	}
	return 0
}

// points returns transmitter positions around the boundaries that
// matter for radius rad: rad ± slack from the t1 sample (where the bound
// stops deciding) and rad from the true position (where the exact
// predicate flips), along the direction of motion, against it and at a
// random angle, each jittered within ±1e-6 m; plus points well inside
// and well outside.
func (b *boundProbe) points(rng *rand.Rand, rad float64) []geo.Point {
	s := b.slack()
	motion := b.truth.Sub(b.val)
	dirs := []geo.Point{unit(motion), unit(motion).Scale(-1), unit(geo.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()})}
	var out []geo.Point
	at := func(from, dir geo.Point, d float64) {
		out = append(out, from.Add(dir.Scale(d+(2*rng.Float64()-1)*1e-6)))
	}
	for _, dir := range dirs {
		for _, sign := range []float64{-1, 1} {
			at(b.val, dir, rad+sign*s)
			at(b.val, dir, rad+sign*s*(1+1e-6))
			at(b.val, dir, rad+sign*s*(1-1e-6))
			at(b.val, dir, rad+sign*s*(1+1e-3))
		}
		at(b.truth, dir, rad)
		at(b.val, dir, rad+s*(4*rng.Float64()-2))
		at(b.val, dir, rad*rng.Float64()*0.5)
		at(b.val, dir, rad*(2+rng.Float64())+s)
	}
	return out
}

func unit(p geo.Point) geo.Point {
	n := math.Sqrt(p.X*p.X + p.Y*p.Y)
	if n == 0 {
		return geo.Point{X: 1}
	}
	return p.Scale(1 / n)
}

// legBoundaries finds, to the nanosecond, the instants before horizon at
// which mob starts or stops moving: the breakpoints of a StopAndGo
// schedule, whose cruise legs are truncated to whole nanoseconds.
func legBoundaries(mob geo.Mobility, horizon time.Duration) []time.Duration {
	moving := func(t time.Duration) bool { return mob.PositionAt(t) != mob.PositionAt(t+time.Nanosecond) }
	var out []time.Duration
	const step = 10 * time.Millisecond
	for t := time.Duration(0); t+step < horizon; t += step {
		if moving(t) == moving(t+step) {
			continue
		}
		lo, hi := t, t+step // moving(lo) != moving(hi)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if moving(mid) == moving(lo) {
				lo = mid
			} else {
				hi = mid
			}
		}
		out = append(out, hi)
	}
	return out
}

// boundModel is a mobility model with the instants at which it wraps.
type boundModel struct {
	name  string
	mob   geo.Mobility
	wraps []time.Duration
}

// boundModels are the mobility models the property test exercises (the
// fuzz target builds the same kinds at fuzzed speeds): closed loops,
// whose wraps are continuous; a loop over an open route, which declares
// no bound; a route that parks at its end; stop-and-go on a loop and on
// a long road; and parked models.
func boundModels() []boundModel {
	rect := geo.RectLoop(400, 250)
	wraps := func(length, speed, offset float64, n int) []time.Duration {
		var out []time.Duration
		for k := 1; k <= n; k++ {
			out = append(out, time.Duration((float64(k)*length-offset)/speed*float64(time.Second)))
		}
		return out
	}
	return []boundModel{
		{"route/closed-loop", &geo.RouteMobility{Route: rect, SpeedMS: 16, Loop: true, Offset: 37},
			wraps(rect.Length(), 16, 37, 12)},
		{"route/open-loop", &geo.RouteMobility{Route: geo.StraightRoad(1000), SpeedMS: 10, Loop: true},
			wraps(1000, 10, 0, 12)},
		{"route/parks-at-end", &geo.RouteMobility{Route: geo.StraightRoad(2000), SpeedMS: 30},
			[]time.Duration{2000 * time.Second / 30}},
		{"stopgo/closed-loop", &geo.StopAndGo{Route: geo.RectLoop(300, 200), SpeedMS: 13.9,
			StopEvery: 25, StopDur: 2 * time.Second, Loop: true, Seed: 3}, nil},
		{"stopgo/road", &geo.StopAndGo{Route: geo.StraightRoad(1e5), SpeedMS: 27.7,
			StopEvery: 15, StopDur: time.Second, Seed: 9}, nil},
		{"route/speed-0", &geo.RouteMobility{Route: rect, SpeedMS: 0, Loop: true, Offset: 90}, nil},
		{"static", geo.Static{P: geo.Point{X: 120, Y: -40}}, nil},
	}
}

// TestBoundDecidedRangeMatchesExact is the property test of within: for
// every model, instants at and around loop wraps and stop-and-go leg
// boundaries as well as random ones, sample ages from 0 to ten minutes,
// both of the medium's radii and transmitter points straddling every
// boundary the decision has, the bound-decided answer equals the exact
// one — and the bound does decide, in both directions, often enough for
// the test to mean something.
func TestBoundDecidedRangeMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ages := []time.Duration{0, time.Nanosecond, time.Microsecond, time.Millisecond,
		100 * time.Millisecond, time.Second, 10 * time.Second, 3 * time.Minute, 10 * time.Minute}
	var in, out, undecided int
	for _, model := range boundModels() {
		instants := slices.Clone(model.wraps)
		if _, ok := model.mob.(*geo.StopAndGo); ok {
			b := legBoundaries(model.mob, 90*time.Second)
			if len(b) < 10 {
				t.Fatalf("%s: found %d leg boundaries in 90 s; the schedule does not stop and go", model.name, len(b))
			}
			instants = append(instants, b...)
		}
		for i := 0; i < 12; i++ {
			instants = append(instants, time.Duration(rng.Int63n(int64(20*time.Minute))))
		}
		var starts []time.Duration
		for _, at := range instants {
			for _, d := range []time.Duration{-time.Nanosecond, 0, time.Nanosecond} {
				if at+d >= 0 {
					starts = append(starts, at+d)
				}
			}
		}
		for _, t1 := range starts {
			// t1 is where the sample is taken; a boundary instant is also
			// tried as t2, the instant the sample is used at.
			for _, age := range ages {
				for _, pair := range [][2]time.Duration{{t1, t1 + age}, {t1 - age, t1}} {
					if pair[0] < 0 {
						continue
					}
					b := newBoundProbe(model.mob, pair[0], pair[1])
					for _, rad := range b.radii {
						for _, p := range b.points(rng, rad) {
							b.check(p, rad)
						}
					}
					if b.disagreement != "" {
						t.Fatalf("%s: %s", model.name, b.disagreement)
					}
					in, out, undecided = in+b.decidedIn, out+b.decidedOut, undecided+b.undecided
				}
			}
		}
	}
	t.Logf("bound decided %d in range and %d out of range; %d checks exact", in, out, undecided)
	if in < 1000 || out < 1000 || undecided < 1000 {
		t.Fatalf("bound decided %d in and %d out, %d undecided: the cases do not exercise every branch", in, out, undecided)
	}
}

// FuzzBoundDecidedRange checks within against the exact predicate on
// fuzzed models, instants, ages and geometry.
func FuzzBoundDecidedRange(f *testing.F) {
	f.Add(uint8(0), 16.0, int64(25*time.Second), int64(time.Second), 0.3, 1.0, 0.0, false)
	f.Add(uint8(1), 10.0, int64(100*time.Second-1), int64(2), 0.0, -1.0, 0.5, true)
	f.Add(uint8(2), 13.9, int64(7*time.Second), int64(3*time.Minute), 2.0, 0.999999, -1.0, false)
	f.Add(uint8(3), 27.7, int64(time.Minute), int64(10*time.Second), -1.2, -0.000001, 1.0, true)
	f.Add(uint8(4), 0.0, int64(0), int64(0), 0.0, 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, kind uint8, speed float64, t1, age int64, angle, off, jitter float64, cs bool) {
		if math.IsNaN(speed) || math.IsInf(speed, 0) || math.IsNaN(angle) || math.IsInf(angle, 0) ||
			math.IsNaN(off) || math.IsInf(off, 0) || math.IsNaN(jitter) || math.IsInf(jitter, 0) {
			return
		}
		speed = math.Mod(math.Abs(speed), 100) // m/s: any vehicle
		start := time.Duration(uint64(t1) % uint64(time.Hour))
		age = int64(uint64(age) % uint64(10*time.Minute))
		var mob geo.Mobility
		switch kind % 5 {
		case 0:
			mob = &geo.RouteMobility{Route: geo.RectLoop(400, 250), SpeedMS: speed, Loop: true, Offset: 37}
		case 1:
			mob = &geo.RouteMobility{Route: geo.StraightRoad(1000), SpeedMS: speed, Loop: true}
		case 2:
			if speed < 0.1 {
				return // StopAndGo needs a cruise speed
			}
			mob = &geo.StopAndGo{Route: geo.RectLoop(300, 200), SpeedMS: speed, StopEvery: 25,
				StopDur: 2 * time.Second, Loop: true, Seed: int64(kind)}
		case 3:
			if speed < 0.1 {
				return
			}
			mob = &geo.StopAndGo{Route: geo.StraightRoad(1e6), SpeedMS: speed, StopEvery: 15,
				StopDur: time.Second, Seed: int64(kind)}
		default:
			mob = &geo.RouteMobility{Route: geo.StraightRoad(2000), SpeedMS: speed}
		}
		b := newBoundProbe(mob, start, start+time.Duration(age))
		rad := b.radii[0]
		if cs {
			rad = b.radii[1]
		}
		off = math.Mod(off, 3)
		jitter = math.Mod(jitter, 1)
		dir := geo.Point{X: math.Cos(angle), Y: math.Sin(angle)}
		p := b.val.Add(dir.Scale(rad + off*b.slack() + jitter*1e-6))
		if !b.check(p, rad) {
			t.Fatal(b.disagreement)
		}
	})
}

// TestOpenLoopClientMatchesLinearScan runs a client looping over an open
// road — it jumps from the far end back to the start every lap — beside
// an access point near the start, with the speed bound declared from its
// mobility model as the driver declares it, and requires the indexed
// medium to match the linear scan across the wrap instant. Both beacon at
// the same instants, so the AP's carrier sense must find the client the
// instant it reappears at the start. The model declares no bound, so the
// medium samples the client exactly; were the cruise speed taken as a
// bound, the client's last sample, at the far end, would place it out of
// carrier-sense range and it would not defer.
func TestOpenLoopClientMatchesLinearScan(t *testing.T) {
	apAddr := wifi.NewAddr(1, 1)
	run := func(linear bool) (log []string, stats Stats, heardAfterWrap int) {
		k := sim.NewKernel(3)
		m := NewMedium(k, Defaults())
		if linear {
			UseLinearScan(m)
		}
		ap := m.NewStaticRadio(apAddr, geo.Point{X: 40, Y: 10}, &logRx{k: k, id: 0, log: &log})
		mob := &geo.RouteMobility{Route: geo.StraightRoad(1000), SpeedMS: 10, Loop: true}
		client := m.NewRadio(wifi.NewAddr(2, 1), mob,
			ReceiverFunc(func(f *wifi.Frame) {
				log = append(log, fmt.Sprintf("%v rx=client sa=%v", k.Now(), f.SA))
				if f.SA == apAddr && k.Now() > 100*time.Second {
					heardAfterWrap++
				}
			}))
		ap.SetChannel(6)
		client.SetChannel(6)
		// The client wraps at exactly 100 s, one of the beacon instants.
		var beacon func()
		beacon = func() {
			for _, r := range []*Radio{ap, client} {
				r.Send(&wifi.Frame{Type: wifi.TypeBeacon, SA: r.Addr(), DA: wifi.Broadcast,
					Body: &wifi.BeaconBody{Channel: 6}})
			}
			if k.Now() < 104*time.Second {
				k.After(20*time.Millisecond, beacon)
			}
		}
		k.At(96*time.Second, beacon)
		k.Run(105 * time.Second)
		return log, m.Stats(), heardAfterWrap
	}
	logL, statsL, heard := run(true)
	logI, statsI, _ := run(false)
	if heard == 0 || statsL.CSDeferred == 0 {
		t.Fatalf("the client heard the AP %d times after its wrap, with %d carrier-sense deferrals; the test is vacuous",
			heard, statsL.CSDeferred)
	}
	if !slices.Equal(logL, logI) {
		t.Fatalf("delivery logs differ across the wrap (linear %d entries, indexed %d)", len(logL), len(logI))
	}
	if statsL != statsI {
		t.Fatalf("medium stats differ:\n  linear:  %+v\n  indexed: %+v", statsL, statsI)
	}
}
