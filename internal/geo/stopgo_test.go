package geo

import (
	"testing"
	"time"
)

func newStopGo(seed int64) *StopAndGo {
	return &StopAndGo{
		Route:     StraightRoad(100000),
		SpeedMS:   10,
		StopEvery: 250,
		StopDur:   20 * time.Second,
		Seed:      seed,
	}
}

func TestStopAndGoMonotoneAlongRoute(t *testing.T) {
	m := newStopGo(1)
	prevX := -1.0
	for s := 0; s <= 600; s++ {
		p := m.PositionAt(time.Duration(s) * time.Second)
		if p.X < prevX-1e-9 {
			t.Fatalf("vehicle moved backwards at %ds: %v < %v", s, p.X, prevX)
		}
		prevX = p.X
	}
}

func TestStopAndGoActuallyStops(t *testing.T) {
	m := newStopGo(2)
	stoppedSeconds := 0
	prev := m.PositionAt(0)
	for s := 1; s <= 600; s++ {
		p := m.PositionAt(time.Duration(s) * time.Second)
		if p.Dist(prev) < 1e-9 {
			stoppedSeconds++
		}
		prev = p
	}
	if stoppedSeconds < 60 {
		t.Fatalf("only %ds stopped in 10min of downtown traffic", stoppedSeconds)
	}
}

func TestStopAndGoAverageBelowCruise(t *testing.T) {
	m := newStopGo(3)
	avg := m.AverageSpeed(20 * time.Minute)
	if avg >= m.SpeedMS {
		t.Fatalf("average %v not below cruise %v", avg, m.SpeedMS)
	}
	if avg < m.SpeedMS*0.2 {
		t.Fatalf("average %v implausibly low", avg)
	}
}

func TestStopAndGoDeterministic(t *testing.T) {
	a, b := newStopGo(7), newStopGo(7)
	for s := 0; s < 300; s += 13 {
		ta := a.PositionAt(time.Duration(s) * time.Second)
		tb := b.PositionAt(time.Duration(s) * time.Second)
		if ta != tb {
			t.Fatalf("diverged at %ds: %v vs %v", s, ta, tb)
		}
	}
	c := newStopGo(8)
	diff := false
	for s := 50; s < 300; s += 13 {
		if c.PositionAt(time.Duration(s)*time.Second) != a.PositionAt(time.Duration(s)*time.Second) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestStopAndGoLoopWraps(t *testing.T) {
	m := &StopAndGo{
		Route: RectLoop(100, 100), SpeedMS: 10, StopEvery: 1000,
		StopDur: time.Second, Loop: true, Seed: 1,
	}
	// After plenty of time the vehicle is still on the loop perimeter.
	p := m.PositionAt(30 * time.Minute)
	onEdge := p.X >= -1e-6 && p.X <= 100+1e-6 && p.Y >= -1e-6 && p.Y <= 100+1e-6
	if !onEdge {
		t.Fatalf("left the loop: %v", p)
	}
}

func TestStopAndGoNegativeTimeClamps(t *testing.T) {
	m := newStopGo(1)
	if m.PositionAt(-time.Second) != m.PositionAt(0) {
		t.Fatal("negative time not clamped")
	}
	if m.Speed() != 10 {
		t.Fatal("cruise speed accessor")
	}
}
