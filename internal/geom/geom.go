// Package geom provides the small amount of 2D/3D geometry the RFly
// simulation needs: points, vectors, segments, distances, specular
// reflections (for image-method multipath), and sampled trajectories.
//
// Coordinates are in meters. The package has no dependencies beyond math
// and is fully deterministic.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in 3D space, in meters. 2D scenarios use Z = 0 (or a
// fixed height); the localization code projects onto the XY plane when asked
// to solve in 2D.
type Point struct {
	X, Y, Z float64
}

// P is shorthand for constructing a Point.
func P(x, y, z float64) Point { return Point{X: x, Y: y, Z: z} }

// P2 constructs a Point in the Z=0 plane.
func P2(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y, p.Z + v.Z} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Canonical orders a link's endpoints deterministically: b comes first
// when it sorts before a in plan view (by X, then Y); otherwise the order
// is kept. Computing a link's quantities from the canonical pair makes
// them exactly reciprocal — floating-point orientation tests on
// knife-edge geometry cannot flip with argument order. Endpoints that
// share X and Y (a vertical link) keep their order.
func Canonical(a, b Point) (Point, Point) {
	if b.X < a.X || (b.X == a.X && b.Y < a.Y) {
		return b, a
	}
	return a, b
}

// Dist2D returns the distance between p and q projected onto the XY plane.
func (p Point) Dist2D(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// XY returns the point with its Z coordinate dropped to zero.
func (p Point) XY() Point { return Point{p.X, p.Y, 0} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f, %.3f)", p.X, p.Y, p.Z) }

// Vec is a displacement in 3D space, in meters.
type Vec struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec.
func V(x, y, z float64) Vec { return Vec{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalized to unit length. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Segment is a 2D line segment in the XY plane (Z is ignored). Walls and
// reflectors in the scene are segments; the multipath model reflects rays
// off them and the occlusion test intersects links against them.
type Segment struct {
	A, B Point
}

// Length returns the segment length in the XY plane.
func (s Segment) Length() float64 { return s.A.Dist2D(s.B) }

// Midpoint returns the midpoint of the segment.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2, (s.A.Z + s.B.Z) / 2}
}

// Intersects reports whether segment s and segment t intersect in the XY
// plane, including touching endpoints.
func (s Segment) Intersects(t Segment) bool {
	d1 := orient(t.A, t.B, s.A)
	d2 := orient(t.A, t.B, s.B)
	d3 := orient(s.A, s.B, t.A)
	d4 := orient(s.A, s.B, t.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(t.A, t.B, s.A):
		return true
	case d2 == 0 && onSegment(t.A, t.B, s.B):
		return true
	case d3 == 0 && onSegment(s.A, s.B, t.A):
		return true
	case d4 == 0 && onSegment(s.A, s.B, t.B):
		return true
	}
	return false
}

// orient returns the signed area orientation of the triple (a, b, c) in the
// XY plane: >0 counter-clockwise, <0 clockwise, 0 collinear.
func orient(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether collinear point p lies within the bounding box
// of segment ab.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// Mirror returns the specular image of point p across the infinite line
// through segment s in the XY plane (the Z coordinate is preserved). This is
// the core primitive of image-method multipath: a first-order reflection off
// s from src to dst has path length |Mirror(src)−dst| when the reflection
// point falls inside the segment.
func (s Segment) Mirror(p Point) Point {
	ax, ay := s.A.X, s.A.Y
	dx, dy := s.B.X-ax, s.B.Y-ay
	den := dx*dx + dy*dy
	if den == 0 {
		// Degenerate segment: mirror across the point.
		return Point{2*ax - p.X, 2*ay - p.Y, p.Z}
	}
	t := ((p.X-ax)*dx + (p.Y-ay)*dy) / den
	fx, fy := ax+t*dx, ay+t*dy // foot of perpendicular
	return Point{2*fx - p.X, 2*fy - p.Y, p.Z}
}

// ReflectionPoint returns the point on the line through s where a ray from
// src to dst reflects (via the image method), and whether that point lies
// within the segment (a physically valid first-order bounce).
func (s Segment) ReflectionPoint(src, dst Point) (Point, bool) {
	img := s.Mirror(src)
	// Intersect segment img→dst with the line through s.
	ax, ay := s.A.X, s.A.Y
	dx, dy := s.B.X-ax, s.B.Y-ay
	ex, ey := dst.X-img.X, dst.Y-img.Y
	den := dx*ey - dy*ex
	if den == 0 {
		return Point{}, false
	}
	// Solve A + t*d = img + u*e.
	t := ((img.X-ax)*ey - (img.Y-ay)*ex) / den
	if t < 0 || t > 1 {
		return Point{}, false
	}
	u := 0.0
	if math.Abs(ex) > math.Abs(ey) {
		u = (ax + t*dx - img.X) / ex
	} else if ey != 0 {
		u = (ay + t*dy - img.Y) / ey
	} else {
		return Point{}, false
	}
	if u < 0 || u > 1 {
		return Point{}, false
	}
	return Point{ax + t*dx, ay + t*dy, src.Z}, true
}

// Trajectory is an ordered list of platform positions at which RFID channel
// measurements were captured. It is the synthetic antenna array of §5.
type Trajectory struct {
	Points []Point
}

// Line returns a straight-line trajectory from a to b sampled at n uniformly
// spaced points (n ≥ 2 gives both endpoints; n == 1 gives a).
func Line(a, b Point, n int) Trajectory {
	if n <= 0 {
		return Trajectory{}
	}
	pts := make([]Point, n)
	if n == 1 {
		pts[0] = a
		return Trajectory{Points: pts}
	}
	d := b.Sub(a)
	for i := range pts {
		f := float64(i) / float64(n-1)
		pts[i] = a.Add(d.Scale(f))
	}
	return Trajectory{Points: pts}
}

// Lawnmower returns a boustrophedon sweep covering the axis-aligned
// rectangle [x0,x1]×[y0,y1] at height z, with the given lane spacing and
// sample step along each lane. It is the flight plan a warehouse scan uses.
func Lawnmower(x0, y0, x1, y1, z, laneSpacing, step float64) Trajectory {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	if laneSpacing <= 0 || step <= 0 {
		return Trajectory{}
	}
	var pts []Point
	forward := true
	for y := y0; y <= y1+1e-9; y += laneSpacing {
		var lane []Point
		for x := x0; x <= x1+1e-9; x += step {
			lane = append(lane, Point{x, y, z})
		}
		if !forward {
			for i, j := 0, len(lane)-1; i < j; i, j = i+1, j-1 {
				lane[i], lane[j] = lane[j], lane[i]
			}
		}
		pts = append(pts, lane...)
		forward = !forward
	}
	return Trajectory{Points: pts}
}

// Aperture returns the largest pairwise XY distance between trajectory
// points — the synthetic aperture size used in Fig. 13.
func (t Trajectory) Aperture() float64 {
	max := 0.0
	for i := range t.Points {
		for j := i + 1; j < len(t.Points); j++ {
			if d := t.Points[i].Dist2D(t.Points[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// Len returns the number of sample points.
func (t Trajectory) Len() int { return len(t.Points) }

// DistToPoint returns the minimum XY distance from p to any sample point of
// the trajectory. The multipath peak-selection rule in §5.2 prefers the
// candidate location nearest to the trajectory in this sense.
func (t Trajectory) DistToPoint(p Point) float64 {
	min := math.Inf(1)
	for _, q := range t.Points {
		if d := q.Dist2D(p); d < min {
			min = d
		}
	}
	return min
}

// Bounds returns the axis-aligned XY bounding box of the trajectory.
func (t Trajectory) Bounds() (x0, y0, x1, y1 float64) {
	if len(t.Points) == 0 {
		return 0, 0, 0, 0
	}
	x0, y0 = t.Points[0].X, t.Points[0].Y
	x1, y1 = x0, y0
	for _, p := range t.Points[1:] {
		x0 = math.Min(x0, p.X)
		y0 = math.Min(y0, p.Y)
		x1 = math.Max(x1, p.X)
		y1 = math.Max(y1, p.Y)
	}
	return x0, y0, x1, y1
}

// Arc returns a circular-arc trajectory centered at c with the given
// radius at height z, sweeping from startAngle to endAngle (radians) in n
// points. Curved flight paths give the synthetic aperture 2D extent, which
// is what allows 3D localization (§5.2).
func Arc(c Point, radius, startAngle, endAngle, z float64, n int) Trajectory {
	if n <= 0 || radius <= 0 {
		return Trajectory{}
	}
	pts := make([]Point, n)
	for i := range pts {
		f := 0.0
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		a := startAngle + f*(endAngle-startAngle)
		pts[i] = Point{c.X + radius*math.Cos(a), c.Y + radius*math.Sin(a), z}
	}
	return Trajectory{Points: pts}
}

// Spiral returns an outward spiral trajectory at height z: n points from
// r0 to r1 over the given number of turns. Spirals maximize aperture in
// both axes for a given flight time.
func Spiral(c Point, r0, r1, z float64, turns float64, n int) Trajectory {
	if n <= 0 || r1 < r0 || turns <= 0 {
		return Trajectory{}
	}
	pts := make([]Point, n)
	for i := range pts {
		f := 0.0
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		r := r0 + f*(r1-r0)
		a := 2 * math.Pi * turns * f
		pts[i] = Point{c.X + r*math.Cos(a), c.Y + r*math.Sin(a), z}
	}
	return Trajectory{Points: pts}
}

// Translate returns a copy of the trajectory shifted by v.
func (t Trajectory) Translate(v Vec) Trajectory {
	pts := make([]Point, len(t.Points))
	for i, p := range t.Points {
		pts[i] = p.Add(v)
	}
	return Trajectory{Points: pts}
}

// Length returns the total path length along the trajectory.
func (t Trajectory) Length() float64 {
	var sum float64
	for i := 1; i < len(t.Points); i++ {
		sum += t.Points[i].Dist(t.Points[i-1])
	}
	return sum
}

// Resample returns a trajectory with n points spaced uniformly along the
// original path (linear interpolation between samples). Survey planners
// use it to match capture density to the Gen2 round rate.
func (t Trajectory) Resample(n int) Trajectory {
	if n <= 0 || len(t.Points) == 0 {
		return Trajectory{}
	}
	if len(t.Points) == 1 || n == 1 {
		return Trajectory{Points: []Point{t.Points[0]}}
	}
	total := t.Length()
	if total == 0 {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = t.Points[0]
		}
		return Trajectory{Points: pts}
	}
	pts := make([]Point, 0, n)
	step := total / float64(n-1)
	target := 0.0
	acc := 0.0
	seg := 0
	for i := 0; i < n; i++ {
		for seg < len(t.Points)-2 && acc+t.Points[seg+1].Dist(t.Points[seg]) < target {
			acc += t.Points[seg+1].Dist(t.Points[seg])
			seg++
		}
		segLen := t.Points[seg+1].Dist(t.Points[seg])
		f := 0.0
		if segLen > 0 {
			f = (target - acc) / segLen
			if f > 1 {
				f = 1
			}
			if f < 0 {
				f = 0
			}
		}
		d := t.Points[seg+1].Sub(t.Points[seg])
		pts = append(pts, t.Points[seg].Add(d.Scale(f)))
		target += step
	}
	return Trajectory{Points: pts}
}
