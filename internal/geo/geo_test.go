package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDistSymmetricAndNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsInf(ax, 0) || math.IsNaN(ay) || math.IsInf(ay, 0) ||
			math.IsNaN(bx) || math.IsInf(bx, 0) || math.IsNaN(by) || math.IsInf(by, 0) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		d1, d2 := a.Dist(b), b.Dist(a)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	a, b := Point{1, 2}, Point{3, 5}
	if got := a.Add(b); got != (Point{4, 7}) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Point{2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRouteLengthAndEndpoints(t *testing.T) {
	r := NewRoute(Point{0, 0}, Point{3, 0}, Point{3, 4})
	if r.Length() != 7 {
		t.Fatalf("length = %v, want 7", r.Length())
	}
	if r.PointAt(-5) != (Point{0, 0}) {
		t.Fatal("negative distance should clamp to start")
	}
	if r.PointAt(100) != (Point{3, 4}) {
		t.Fatal("overshoot should clamp to end")
	}
}

func TestRouteInterpolation(t *testing.T) {
	r := NewRoute(Point{0, 0}, Point{10, 0}, Point{10, 10})
	cases := []struct {
		d    float64
		want Point
	}{
		{0, Point{0, 0}},
		{5, Point{5, 0}},
		{10, Point{10, 0}},
		{15, Point{10, 5}},
		{20, Point{10, 10}},
	}
	for _, c := range cases {
		got := r.PointAt(c.d)
		if got.Dist(c.want) > 1e-9 {
			t.Errorf("PointAt(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestRouteSinglePoint(t *testing.T) {
	r := NewRoute(Point{7, 7})
	if r.Length() != 0 {
		t.Fatal("single-point route has nonzero length")
	}
	if r.PointAt(123) != (Point{7, 7}) {
		t.Fatal("single-point route moved")
	}
}

func TestEmptyRoutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty route")
		}
	}()
	NewRoute()
}

// Property: positions along a route are continuous — small steps in path
// distance produce proportionally small steps in position.
func TestPropertyRouteContinuity(t *testing.T) {
	r := RectLoop(500, 300)
	step := 0.5
	prev := r.PointAt(0)
	for d := step; d <= r.Length(); d += step {
		p := r.PointAt(d)
		if p.Dist(prev) > step+1e-9 {
			t.Fatalf("discontinuity at d=%v: jumped %v m", d, p.Dist(prev))
		}
		prev = p
	}
}

func TestStaticMobility(t *testing.T) {
	s := Static{P: Point{5, 5}}
	if s.PositionAt(time.Hour) != (Point{5, 5}) || s.Speed() != 0 {
		t.Fatal("static mobility moved")
	}
}

func TestRouteMobilitySpeed(t *testing.T) {
	m := &RouteMobility{Route: StraightRoad(1000), SpeedMS: 10}
	p := m.PositionAt(30 * time.Second)
	if math.Abs(p.X-300) > 1e-9 {
		t.Fatalf("at 10 m/s after 30s expected x=300, got %v", p)
	}
	if m.Speed() != 10 {
		t.Fatal("Speed mismatch")
	}
}

func TestRouteMobilityParksAtEnd(t *testing.T) {
	m := &RouteMobility{Route: StraightRoad(100), SpeedMS: 10}
	p := m.PositionAt(time.Minute) // 600m demand on a 100m road
	if p != (Point{100, 0}) {
		t.Fatalf("non-loop mobility should park at end, got %v", p)
	}
}

func TestRouteMobilityLoops(t *testing.T) {
	loop := RectLoop(100, 100) // perimeter 400
	m := &RouteMobility{Route: loop, SpeedMS: 10, Loop: true}
	p0 := m.PositionAt(0)
	p1 := m.PositionAt(40 * time.Second) // exactly one lap
	if p0.Dist(p1) > 1e-6 {
		t.Fatalf("one lap should return to start: %v vs %v", p0, p1)
	}
	// Half a lap later it must be far from the start.
	p2 := m.PositionAt(60 * time.Second)
	if p0.Dist(p2) < 50 {
		t.Fatalf("half-lap position suspiciously near start: %v", p2)
	}
}

func TestRouteMobilityOffset(t *testing.T) {
	m := &RouteMobility{Route: StraightRoad(1000), SpeedMS: 10, Offset: 100}
	if p := m.PositionAt(0); math.Abs(p.X-100) > 1e-9 {
		t.Fatalf("offset start wrong: %v", p)
	}
}

func TestChannelMixPickRespectsWeights(t *testing.T) {
	mix := AmherstMix()
	r := rand.New(rand.NewSource(1))
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[mix.pick(r)]++
	}
	frac := func(ch int) float64 { return float64(counts[ch]) / n }
	if f := frac(6); f < 0.28 || f > 0.38 {
		t.Fatalf("channel 6 fraction %.3f, want ~0.33", f)
	}
	if f := frac(1); f < 0.23 || f > 0.33 {
		t.Fatalf("channel 1 fraction %.3f, want ~0.28", f)
	}
	if f := frac(11); f < 0.29 || f > 0.39 {
		t.Fatalf("channel 11 fraction %.3f, want ~0.34", f)
	}
}

func TestDeployAlongRouteDeterministic(t *testing.T) {
	route := RectLoop(1000, 500)
	a := DeployAlongRoute(rand.New(rand.NewSource(9)), route, 50, 30, AmherstMix())
	b := DeployAlongRoute(rand.New(rand.NewSource(9)), route, 50, 30, AmherstMix())
	if len(a) != len(b) || len(a) != 50 {
		t.Fatalf("deployment sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("deployment not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDeployAlongRouteNearRoute(t *testing.T) {
	route := StraightRoad(2000)
	deps := DeployAlongRoute(rand.New(rand.NewSource(2)), route, 100, 50, AmherstMix())
	for _, d := range deps {
		if d.Pos.Y < -50-1e-9 || d.Pos.Y > 50+1e-9 {
			t.Fatalf("AP displaced beyond maxOffset: %v", d.Pos)
		}
		if d.Channel < 1 || d.Channel > 11 {
			t.Fatalf("bad channel %d", d.Channel)
		}
	}
}
