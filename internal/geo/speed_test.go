package geo

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Speed is a contract, not a nominal figure: the radio medium places a
// mobile from an old sample by assuming it moved at most Speed·Δt since.
// These tests hold every model to it across loop wraps, stop legs and
// StopAndGo's nanosecond-truncated cruise legs, and check that a loop
// over an open route, which jumps back to its start every lap, declares
// no bound at all.

// TestSpeedBoundsDisplacement checks |p(t₂) − p(t₁)| ≤ Speed·(t₂ − t₁)
// plus a rounding margin for pairs of instants a nanosecond to minutes
// apart, including pairs straddling every wrap and every stop.
func TestSpeedBoundsDisplacement(t *testing.T) {
	rect := RectLoop(400, 250)
	models := []struct {
		name string
		mob  Mobility
	}{
		{"route/closed-loop", &RouteMobility{Route: rect, SpeedMS: 16, Loop: true, Offset: 37}},
		{"route/negative-offset", &RouteMobility{Route: rect, SpeedMS: 0.3, Loop: true, Offset: -2500}},
		{"route/parks-at-end", &RouteMobility{Route: StraightRoad(600), SpeedMS: 30}},
		{"stopgo/closed-loop", &StopAndGo{Route: RectLoop(300, 200), SpeedMS: 13.9,
			StopEvery: 25, StopDur: 2 * time.Second, Loop: true, Seed: 3}},
		{"stopgo/road", &StopAndGo{Route: StraightRoad(1e5), SpeedMS: 27.7,
			StopEvery: 15, StopDur: time.Second, Seed: 9}},
		{"static", Static{P: Point{3, 4}}},
	}
	rng := rand.New(rand.NewSource(2))
	const horizon = 30 * time.Minute
	for _, c := range models {
		v := c.mob.Speed()
		if v < 0 {
			t.Fatalf("%s: Speed %v, want a bound", c.name, v)
		}
		// Instants a few ms apart over the first minutes (every wrap of
		// the fast loop, every stop of the stop-and-go schedules), each
		// with its nanosecond neighbours, plus random instants.
		var ts []time.Duration
		for at := time.Duration(0); at < 4*time.Minute; at += 3 * time.Millisecond {
			ts = append(ts, at, at+time.Nanosecond)
		}
		if sg, ok := c.mob.(*StopAndGo); ok {
			sg.ensure(horizon)
			for _, at := range sg.times {
				if at > time.Nanosecond && at < horizon {
					ts = append(ts, at-time.Nanosecond, at, at+time.Nanosecond)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			ts = append(ts, time.Duration(rng.Int63n(int64(horizon))))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		check := func(t1, t2 time.Duration) {
			d := c.mob.PositionAt(t2).Dist(c.mob.PositionAt(t1))
			s := v * (t2 - t1).Seconds()
			if d > s+1e-6*(1+s) {
				t.Fatalf("%s: moved %.12g m from %v to %v, bound allows %.12g m", c.name, d, t1, t2, s)
			}
		}
		for i := 1; i < len(ts); i++ {
			check(ts[i-1], ts[i])
			check(ts[rng.Intn(i)], ts[i])
		}
	}
}

// TestOpenLoopDeclaresNoBound covers the models that cannot bound their
// speed: a loop over an open route jumps from its end back to its start
// at every wrap, so Speed must be negative: no bound.
// The same route without Loop parks at its end and keeps its bound, and
// a closed loop is continuous across the wrap.
func TestOpenLoopDeclaresNoBound(t *testing.T) {
	road := StraightRoad(1000)
	open := &RouteMobility{Route: road, SpeedMS: 10, Loop: true}
	if open.Speed() >= 0 {
		t.Fatalf("open-route loop Speed = %v, want negative", open.Speed())
	}
	wrap := 100 * time.Second
	if jump := open.PositionAt(wrap - time.Nanosecond).Dist(open.PositionAt(wrap)); jump < 999 {
		t.Fatalf("open-route loop moved %v m across its wrap; the fixture should jump", jump)
	}
	sg := &StopAndGo{Route: road, SpeedMS: 10, StopEvery: 250, StopDur: time.Second, Loop: true, Seed: 1}
	if sg.Speed() >= 0 {
		t.Fatalf("open-route stop-and-go loop Speed = %v, want negative", sg.Speed())
	}
	if (&RouteMobility{Route: road, SpeedMS: 10}).Speed() != 10 {
		t.Fatal("a route that parks at its end lost its bound")
	}
	sg.Loop = false
	if sg.Speed() != 10 {
		t.Fatal("stop-and-go on an open route without Loop lost its bound")
	}
	if (&RouteMobility{Route: RectLoop(100, 100), SpeedMS: 10, Loop: true}).Speed() != 10 {
		t.Fatal("a closed loop lost its bound")
	}
}
