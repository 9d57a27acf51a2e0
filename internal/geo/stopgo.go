package geo

import (
	"math/rand"
	"time"
)

// StopAndGo wraps a route with downtown traffic dynamics: the vehicle
// cruises at SpeedMS, then halts for a light or congestion, repeatedly.
// Stop spacing is exponential with mean StopEvery meters; stop length is
// uniform in [StopDur/2, 3·StopDur/2]. The realized schedule is
// deterministic in Seed.
//
// The paper's drives are through downtown Amherst and Boston — real
// encounters mix motion with idling at lights, which lengthens some AP
// encounters dramatically and is why measured encounter duration
// distributions have heavy tails (mean 22 s vs median 8 s).
type StopAndGo struct {
	Route     *Route
	SpeedMS   float64
	StopEvery float64 // mean meters between stops
	StopDur   time.Duration
	Loop      bool
	Seed      int64

	// breakpoints of the piecewise schedule: at time[i] the vehicle is at
	// path distance dist[i]; between breakpoints it either cruises or
	// stands still (alternating, starting with cruising).
	times []time.Duration
	dists []float64
	rng   *rand.Rand
}

// ensure extends the precomputed schedule to cover time t.
func (m *StopAndGo) ensure(t time.Duration) {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.Seed))
		m.times = []time.Duration{0}
		m.dists = []float64{0}
	}
	for m.times[len(m.times)-1] <= t {
		lastT := m.times[len(m.times)-1]
		lastD := m.dists[len(m.dists)-1]
		// Cruise leg.
		leg := m.rng.ExpFloat64() * m.StopEvery
		if leg < 5 {
			leg = 5
		}
		cruise := time.Duration(leg / m.SpeedMS * float64(time.Second))
		m.times = append(m.times, lastT+cruise)
		m.dists = append(m.dists, lastD+leg)
		// Stop leg.
		stop := time.Duration((0.5 + m.rng.Float64()) * float64(m.StopDur))
		m.times = append(m.times, lastT+cruise+stop)
		m.dists = append(m.dists, lastD+leg)
	}
}

// PositionAt implements Mobility.
func (m *StopAndGo) PositionAt(t time.Duration) Point {
	if t < 0 {
		t = 0
	}
	m.ensure(t)
	// Binary search the breakpoint segment containing t.
	lo, hi := 0, len(m.times)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if m.times[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	d := m.dists[lo]
	if m.dists[hi] > m.dists[lo] { // cruising segment: interpolate
		frac := float64(t-m.times[lo]) / float64(m.times[hi]-m.times[lo])
		d += frac * (m.dists[hi] - m.dists[lo])
	}
	if m.Loop {
		l := m.Route.Length()
		if l > 0 {
			for d >= l {
				d -= l
			}
		}
	}
	return m.Route.PointAt(d)
}

// Speed implements Mobility: the cruise speed (the long-run average is
// lower), or -1 when the vehicle loops over an open route.
func (m *StopAndGo) Speed() float64 {
	if m.Loop && !m.Route.closed() {
		return -1
	}
	return m.SpeedMS
}

// AverageSpeed reports the realized mean speed over the first window.
func (m *StopAndGo) AverageSpeed(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	m.ensure(window)
	// Use path distance, not displacement: find covered distance at window.
	lo, hi := 0, len(m.times)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if m.times[mid] <= window {
			lo = mid
		} else {
			hi = mid
		}
	}
	d := m.dists[lo]
	if m.dists[hi] > m.dists[lo] {
		frac := float64(window-m.times[lo]) / float64(m.times[hi]-m.times[lo])
		d += frac * (m.dists[hi] - m.dists[lo])
	}
	return d / window.Seconds()
}
