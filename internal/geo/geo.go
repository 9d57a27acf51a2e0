// Package geo provides the 2-D geometry, road routes, and vehicular
// mobility models used by the Spider reproduction.
//
// The paper's outdoor evaluation drives cars repeatedly around fixed
// routes in Amherst and Boston past organically deployed access points.
// This package supplies the synthetic equivalent: routes as polylines,
// loop mobility at configurable speed, and deployment generators that
// scatter APs along the route with controllable density and offset.
package geo

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Point is a position in meters on a flat 2-D plane.
type Point struct {
	X, Y float64
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q in meters.
// Coordinates are meters-scale, so the plain square root cannot
// overflow and avoids math.Hypot's scaling work — this sits on the
// medium's per-candidate hot path.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared distance between p and q. Range predicates
// compare it against a squared radius to skip the square root for the
// (at city scale, overwhelmingly common) out-of-range candidates.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Route is a polyline in meters. A route with a single point is a fixed
// position; routes with two or more points support interpolation.
type Route struct {
	points []Point
	// cum[i] is the path distance from points[0] to points[i].
	cum []float64
}

// NewRoute builds a route from waypoints. It panics on an empty slice;
// a route must have at least one point to be a position at all.
func NewRoute(points ...Point) *Route {
	if len(points) == 0 {
		panic("geo: route needs at least one point")
	}
	r := &Route{points: append([]Point(nil), points...)}
	r.cum = make([]float64, len(points))
	for i := 1; i < len(points); i++ {
		r.cum[i] = r.cum[i-1] + points[i].Dist(points[i-1])
	}
	return r
}

// Length returns the total path length in meters.
func (r *Route) Length() float64 { return r.cum[len(r.cum)-1] }

// closed reports whether the route ends where it starts, so that a
// vehicle looping over it never jumps.
func (r *Route) closed() bool { return r.points[0] == r.points[len(r.points)-1] }

// PointAt returns the position at path distance d from the start.
// Distances beyond the end clamp to the final point; negative clamp to
// the start.
func (r *Route) PointAt(d float64) Point {
	if d <= 0 || len(r.points) == 1 {
		return r.points[0]
	}
	if d >= r.Length() {
		return r.points[len(r.points)-1]
	}
	// Binary search for the segment containing d.
	lo, hi := 0, len(r.cum)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if r.cum[mid] <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := r.cum[hi] - r.cum[lo]
	if segLen == 0 {
		return r.points[lo]
	}
	t := (d - r.cum[lo]) / segLen
	a, b := r.points[lo], r.points[hi]
	return a.Add(b.Sub(a).Scale(t))
}

// StraightRoad returns a route along the X axis of the given length.
func StraightRoad(length float64) *Route {
	return NewRoute(Point{0, 0}, Point{length, 0})
}

// RectLoop returns a closed rectangular loop route (returning to the
// start), modeling the repeated downtown circuits of the paper's drives.
func RectLoop(w, h float64) *Route {
	return NewRoute(Point{0, 0}, Point{w, 0}, Point{w, h}, Point{0, h}, Point{0, 0})
}

// Mobility yields a position as a function of virtual time.
type Mobility interface {
	// PositionAt returns the position at virtual time t.
	PositionAt(t time.Duration) Point
	// Speed returns an upper bound in m/s on the instantaneous speed,
	// holding at every instant up to float and nanosecond rounding (0
	// for a model that never moves), or a negative value when the model
	// has none: a loop over an open route, for one, jumps back to its
	// start every lap. The radio medium relies on the bound to place a
	// mobile without sampling it.
	Speed() float64
}

// Static is a mobility model that never moves.
type Static struct{ P Point }

// PositionAt implements Mobility.
func (s Static) PositionAt(time.Duration) Point { return s.P }

// Speed implements Mobility.
func (s Static) Speed() float64 { return 0 }

// RouteMobility follows a route at constant speed. If Loop is true the
// node wraps to the start after the final waypoint (a drive circling the
// block); otherwise it parks at the end.
type RouteMobility struct {
	Route   *Route
	SpeedMS float64 // meters per second
	Loop    bool
	Offset  float64 // starting path distance in meters
}

// PositionAt implements Mobility.
func (m *RouteMobility) PositionAt(t time.Duration) Point {
	d := m.Offset + m.SpeedMS*t.Seconds()
	if m.Loop {
		l := m.Route.Length()
		if l > 0 {
			// Wrap via floor rather than math.Mod: the medium evaluates
			// every mobile candidate's position per query, and Mod's
			// bit-exact reduction loop is an order of magnitude slower
			// than the one rounding instruction floor compiles to.
			d -= l * math.Floor(d/l)
			if d < 0 || d >= l {
				d = 0
			}
		}
	}
	return m.Route.PointAt(d)
}

// Speed implements Mobility: SpeedMS, or -1 when the mobility loops
// over an open route.
func (m *RouteMobility) Speed() float64 {
	if m.Loop && !m.Route.closed() {
		return -1
	}
	return m.SpeedMS
}

// Deployment describes one placed access point.
type Deployment struct {
	Pos     Point
	Channel int
}

// ChannelMix maps a channel number to its share of APs. Shares need not
// sum to one; they are normalized.
type ChannelMix map[int]float64

// AmherstMix is the paper's measured occupancy of the orthogonal
// channels in Amherst: 28% on ch 1, 33% on ch 6, 34% on ch 11, and the
// remainder spread over other channels (folded into ch 3 here so that
// "other" APs exist but never help an orthogonal-channel schedule).
func AmherstMix() ChannelMix {
	return ChannelMix{1: 0.28, 6: 0.33, 11: 0.34, 3: 0.05}
}

// pick draws a channel according to the mix.
func (m ChannelMix) pick(r *rand.Rand) int {
	var total float64
	// Iterate in sorted order for determinism.
	chans := make([]int, 0, len(m))
	for c := range m {
		chans = append(chans, c)
	}
	sortInts(chans)
	for _, c := range chans {
		total += m[c]
	}
	x := r.Float64() * total
	for _, c := range chans {
		x -= m[c]
		if x <= 0 {
			return c
		}
	}
	return chans[len(chans)-1]
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// DeployAlongRoute scatters n APs near a route: each AP sits at a
// uniformly random path distance, displaced laterally by up to maxOffset
// meters (buildings set back from the road), on a channel drawn from the
// mix. The same RNG and arguments always produce the same deployment.
func DeployAlongRoute(r *rand.Rand, route *Route, n int, maxOffset float64, mix ChannelMix) []Deployment {
	deps := make([]Deployment, 0, n)
	for i := 0; i < n; i++ {
		d := r.Float64() * route.Length()
		p := route.PointAt(d)
		off := Point{
			X: (r.Float64()*2 - 1) * maxOffset,
			Y: (r.Float64()*2 - 1) * maxOffset,
		}
		deps = append(deps, Deployment{Pos: p.Add(off), Channel: mix.pick(r)})
	}
	return deps
}

// DeployUniform scatters n APs uniformly at random over a w×h area with
// channels drawn from the mix — the deployment model for city-scale
// worlds, where APs fill whole neighborhoods rather than lining one
// route. The same RNG and arguments always produce the same deployment.
func DeployUniform(r *rand.Rand, w, h float64, n int, mix ChannelMix) []Deployment {
	deps := make([]Deployment, 0, n)
	for i := 0; i < n; i++ {
		p := Point{X: r.Float64() * w, Y: r.Float64() * h}
		deps = append(deps, Deployment{Pos: p, Channel: mix.pick(r)})
	}
	return deps
}
