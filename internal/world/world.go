// Package world models the physical environments RFly was evaluated in:
// rooms bounded by walls, steel shelving that acts as strong RF reflectors,
// and occlusions that attenuate non-line-of-sight links. Scenes are 2D
// (plan view) with heights carried on the points; that matches the paper's
// evaluation, which localizes tags on the floor in 2D (§7.2).
package world

import (
	"fmt"

	"rfly/internal/geom"
)

// Material describes the RF behaviour of a wall or obstacle.
type Material struct {
	Name string
	// TransmissionLossDB is the power loss a link suffers crossing one
	// instance of this material.
	TransmissionLossDB float64
	// Reflectivity is the amplitude reflection coefficient (0..1) for
	// first-order specular bounces off this material.
	Reflectivity float64
}

// Common materials, with losses in line with indoor propagation surveys.
var (
	Drywall  = Material{Name: "drywall", TransmissionLossDB: 3, Reflectivity: 0.15}
	Concrete = Material{Name: "concrete", TransmissionLossDB: 12, Reflectivity: 0.35}
	Steel    = Material{Name: "steel", TransmissionLossDB: 30, Reflectivity: 0.75}
	// SteelRack models warehouse pallet racking: highly reflective steel
	// members but porous to propagation (goods and air gaps), unlike a
	// solid steel sheet.
	SteelRack = Material{Name: "steel-rack", TransmissionLossDB: 8, Reflectivity: 0.6}
	Glass     = Material{Name: "glass", TransmissionLossDB: 2, Reflectivity: 0.1}
	Floor     = Material{Name: "floor-slab", TransmissionLossDB: 20, Reflectivity: 0.3}
)

// Wall is a planar obstacle in the scene.
type Wall struct {
	Seg geom.Segment
	Mat Material
}

// Scene is a collection of walls/obstacles plus free space.
type Scene struct {
	Name  string
	Walls []Wall
}

// AddWall appends a wall.
func (s *Scene) AddWall(a, b geom.Point, m Material) {
	s.Walls = append(s.Walls, Wall{Seg: geom.Segment{A: a, B: b}, Mat: m})
}

// canonicalLink orders a link's endpoints by geom.Canonical so that
// occlusion tests are exactly symmetric: a link grazing a wall endpoint
// must not flip with argument order, or channel reciprocity breaks by a
// wall's worth of loss.
func canonicalLink(a, b geom.Point) geom.Segment {
	a, b = geom.Canonical(a, b)
	return geom.Segment{A: a, B: b}
}

// LineOfSight reports whether the straight segment from a to b crosses no
// wall.
func (s *Scene) LineOfSight(a, b geom.Point) bool {
	link := canonicalLink(a, b)
	for _, w := range s.Walls {
		if link.Intersects(w.Seg) {
			return false
		}
	}
	return true
}

// TransmissionLossDB returns the total through-wall power loss of the
// direct path from a to b: the sum of each crossed wall's loss.
func (s *Scene) TransmissionLossDB(a, b geom.Point) float64 {
	link := canonicalLink(a, b)
	var loss float64
	for _, w := range s.Walls {
		if link.Intersects(w.Seg) {
			loss += w.Mat.TransmissionLossDB
		}
	}
	return loss
}

// Reflectors returns the walls capable of producing meaningful first-order
// bounces (reflectivity above the threshold).
func (s *Scene) Reflectors(minReflectivity float64) []Wall {
	var out []Wall
	for _, w := range s.Walls {
		if w.Mat.Reflectivity >= minReflectivity {
			out = append(out, w)
		}
	}
	return out
}

// String summarizes the scene.
func (s *Scene) String() string {
	return fmt.Sprintf("scene %q: %d walls", s.Name, len(s.Walls))
}

// OpenSpace returns an empty scene: pure free-space propagation, used by
// the line-of-sight microbenchmarks.
func OpenSpace() *Scene { return &Scene{Name: "open-space"} }

// Corridor returns a long corridor of the given length and width bounded
// by drywall, used for the read-range sweeps (Fig. 11): the reader sits at
// one end and the relay flies down the corridor.
func Corridor(length, width float64) *Scene {
	s := &Scene{Name: "corridor"}
	s.AddWall(geom.P2(0, 0), geom.P2(length, 0), Drywall)
	s.AddWall(geom.P2(0, width), geom.P2(length, width), Drywall)
	return s
}

// CorridorNLoS returns the corridor with concrete cross-walls between the
// reader and the far end, creating the paper's through-wall
// non-line-of-sight condition. nWalls cross-walls are evenly spaced along
// the second half of the corridor.
func CorridorNLoS(length, width float64, nWalls int) *Scene {
	s := Corridor(length, width)
	s.Name = "corridor-nlos"
	for i := 1; i <= nWalls; i++ {
		x := length * (0.3 + 0.5*float64(i)/float64(nWalls+1))
		s.AddWall(geom.P2(x, 0), geom.P2(x, width), Concrete)
	}
	return s
}

// Warehouse returns a scene modelled on the paper's motivating setting: a
// rectangular hall with rows of steel shelving. Shelf rows run along X
// with the given spacing, leaving aisles between them. The steel rows are
// both occluders and strong reflectors — the source of Fig. 6(b)'s ghost
// peaks.
func Warehouse(width, depth float64, rows int) *Scene {
	s := &Scene{Name: "warehouse"}
	// Outer concrete walls.
	s.AddWall(geom.P2(0, 0), geom.P2(width, 0), Concrete)
	s.AddWall(geom.P2(width, 0), geom.P2(width, depth), Concrete)
	s.AddWall(geom.P2(width, depth), geom.P2(0, depth), Concrete)
	s.AddWall(geom.P2(0, depth), geom.P2(0, 0), Concrete)
	if rows <= 0 {
		return s
	}
	gap := depth / float64(rows+1)
	for i := 1; i <= rows; i++ {
		y := gap * float64(i)
		// Shelves leave clearance at both ends for aisle access. Racking
		// is porous (SteelRack), not solid plate.
		s.AddWall(geom.P2(width*0.1, y), geom.P2(width*0.9, y), SteelRack)
	}
	return s
}

// ResearchFacility returns a scene shaped like the paper's 30×40 m
// two-floor evaluation building: an office floor with drywall partitions
// and a concrete core. The floor-slab wall (between floors) is modelled as
// a single heavy occluder for cross-floor links.
func ResearchFacility() *Scene {
	s := &Scene{Name: "research-facility"}
	// Outer shell, 30 × 40 m.
	s.AddWall(geom.P2(0, 0), geom.P2(40, 0), Concrete)
	s.AddWall(geom.P2(40, 0), geom.P2(40, 30), Concrete)
	s.AddWall(geom.P2(40, 30), geom.P2(0, 30), Concrete)
	s.AddWall(geom.P2(0, 30), geom.P2(0, 0), Concrete)
	// Concrete elevator/stair core.
	s.AddWall(geom.P2(18, 12), geom.P2(22, 12), Concrete)
	s.AddWall(geom.P2(22, 12), geom.P2(22, 18), Concrete)
	s.AddWall(geom.P2(22, 18), geom.P2(18, 18), Concrete)
	s.AddWall(geom.P2(18, 18), geom.P2(18, 12), Concrete)
	// Drywall office partitions.
	for i := 1; i <= 3; i++ {
		x := 10.0 * float64(i)
		s.AddWall(geom.P2(x, 0), geom.P2(x, 9), Drywall)
		s.AddWall(geom.P2(x, 21), geom.P2(x, 30), Drywall)
	}
	// A lab area with steel benches along one wall.
	s.AddWall(geom.P2(2, 25), geom.P2(12, 25), Steel)
	return s
}

// CrossFloor returns a two-floor slice of the paper's facility for
// cross-floor experiments (§7.2 mentions spanning floors): the reader
// sits on floor 1 and tags on floor 2, separated by the concrete slab.
// In the 2D plan-view model the slab is represented as a heavy occluder
// crossing every floor-1→floor-2 link; callers place floor-2 nodes beyond
// the SlabX line.
func CrossFloor(length, width float64) *Scene {
	s := Corridor(length, width)
	s.Name = "cross-floor"
	// The stairwell/slab boundary: everything past the midpoint is "the
	// other floor" behind the slab.
	s.AddWall(geom.P2(length/2, 0), geom.P2(length/2, width), Floor)
	return s
}
