// Package propagation computes the wireless channels of the RFly
// simulation: free-space path loss, through-wall attenuation, log-normal
// shadowing hooks, and image-method first-order multipath over a scene.
//
// Channels are complex amplitudes h such that received power = |h|² ×
// transmitted power and the carrier phase rotates as e^{−j2πf·d/c} with
// path length d — exactly the phase structure Eqs. 7–10 of the paper build
// on. Backscatter links compose two one-way channels multiplicatively.
package propagation

import (
	"math"
	"math/cmplx"

	"rfly/internal/geom"
	"rfly/internal/signal"
	"rfly/internal/world"
)

// Path is one propagation path between two nodes.
type Path struct {
	Dist   float64 // geometric length, meters
	LossDB float64 // total power loss along the path (positive dB)
	// Direct marks the line-of-sight path (possibly attenuated by walls);
	// false for reflected paths.
	Direct bool
}

// Gain returns the path's complex amplitude gain at carrier frequency f.
func (p Path) Gain(f float64) complex128 {
	amp := signal.AmpFromDB(-p.LossDB)
	phase := -2 * math.Pi * f * p.Dist / signal.C
	return cmplx.Rect(amp, phase)
}

// FSPLdB returns free-space path loss in dB at distance d (m) and carrier
// f (Hz). Distances below 10 cm are clamped to avoid near-field nonsense.
func FSPLdB(d, f float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	return 20 * math.Log10(4*math.Pi*d*f/signal.C)
}

// Model computes channels over a scene.
type Model struct {
	Scene *world.Scene
	// Freq is the carrier frequency used for phase accumulation.
	Freq float64
	// MinReflectivity filters which walls spawn first-order bounces.
	MinReflectivity float64
	// PathLossExponentExtra adds (10·extra·log10 d) dB beyond free space,
	// modelling cluttered indoor propagation. 0 = pure free space.
	PathLossExponentExtra float64
	// GroundReflectivity, when positive, adds the floor-bounce path
	// (specular reflection off the z = 0 plane) to every link whose
	// endpoints are above the floor. Indoors this bounce is always
	// present and is a dominant source of phase error for tags near the
	// floor.
	GroundReflectivity float64
	// SecondOrder enables wall-pair double bounces (image-of-image
	// method). Off by default: first-order plus the ground bounce covers
	// the paper's scenarios, and second order roughly squares the path
	// count. Double bounces below MinSecondOrderGainDB of the direct path
	// are pruned.
	SecondOrder          bool
	MinSecondOrderGainDB float64
}

// NewModel returns a model over the scene at carrier f with defaults that
// match the reproduction's calibration: first-order bounces off anything
// with reflectivity ≥ 0.3, free-space exponent.
func NewModel(s *world.Scene, f float64) *Model {
	return &Model{Scene: s, Freq: f, MinReflectivity: 0.3}
}

// Paths enumerates the propagation paths from a to b: the (possibly
// wall-attenuated) direct path plus one first-order specular bounce per
// reflective wall whose reflection point is geometrically valid. The
// bounce legs also accumulate through-wall losses, so a reflector behind
// an obstacle contributes only weakly.
func (m *Model) Paths(a, b geom.Point) []Path {
	var paths []Path
	m.eachPath(a, b, func(p Path) { paths = append(paths, p) })
	return paths
}

// Channel returns the coherent sum of every path's complex gain from a to
// b at carrier f (the model's Freq when f == 0), with unit antenna gains.
// It visits the paths in Paths' order (direct, ground, reflectors in wall
// order, then second order) without building the slice, so it allocates
// nothing.
func (m *Model) Channel(a, b geom.Point, f float64) complex128 {
	if f == 0 {
		f = m.Freq
	}
	var h complex128
	m.eachPath(a, b, func(p Path) { h += p.Gain(f) })
	return h
}

// eachPath calls fn for every propagation path from a to b, direct path
// first. Every quantity past the direct path is computed from the
// canonical endpoint pair (geom.Canonical), making the multipath sum
// exactly reciprocal: image-method geometry is symmetric on paper, but
// knife-edge cases would otherwise flip with argument order.
func (m *Model) eachPath(a, b geom.Point, fn func(Path)) {
	d := a.Dist(b)
	directLossDB := FSPLdB(d, m.Freq) + m.extraLoss(d) + m.Scene.TransmissionLossDB(a, b)
	fn(Path{Dist: d, LossDB: directLossDB, Direct: true})
	ca, cb := geom.Canonical(a, b)
	if m.GroundReflectivity > 0 && a.Z > 0 && b.Z > 0 {
		img := geom.Point{X: ca.X, Y: ca.Y, Z: -ca.Z}
		dist := img.Dist(cb)
		if dist > d {
			loss := FSPLdB(dist, m.Freq) + m.extraLoss(dist) -
				20*math.Log10(m.GroundReflectivity) +
				m.Scene.TransmissionLossDB(a, b) // same plan-view crossings
			fn(Path{Dist: dist, LossDB: loss})
		}
	}
	for _, w := range m.Scene.Walls {
		if !m.reflects(w) {
			continue
		}
		rp, ok := w.Seg.ReflectionPoint(ca, cb)
		if !ok {
			continue
		}
		// Total bounce length via the image of the canonical first point.
		img := w.Seg.Mirror(ca)
		dist := img.Dist(cb)
		if dist <= d {
			// Numerical degenerate (a or b on the wall): skip.
			continue
		}
		loss := FSPLdB(dist, m.Freq) + m.extraLoss(dist) +
			-20*math.Log10(w.Mat.Reflectivity) // reflection loss
		// Wall crossings on each leg, excluding the bouncing wall itself.
		loss += m.crossingLossExcept(ca, rp, w, w) + m.crossingLossExcept(rp, cb, w, w)
		fn(Path{Dist: dist, LossDB: loss})
	}
	if m.SecondOrder {
		m.secondOrderPaths(ca, cb, directLossDB, fn)
	}
}

// reflects reports whether w is reflective enough to spawn bounces.
func (m *Model) reflects(w world.Wall) bool {
	return w.Mat.Reflectivity >= m.MinReflectivity
}

// secondOrderPaths enumerates wall-pair double bounces via the
// image-of-image method: mirror a across wall i, mirror that image
// across wall j, and require both reflection points to be geometrically
// valid. Legs' wall crossings are charged except at the bouncing walls.
func (m *Model) secondOrderPaths(a, b geom.Point, directLossDB float64, fn func(Path)) {
	floor := directLossDB - m.MinSecondOrderGainDB
	if m.MinSecondOrderGainDB == 0 {
		floor = directLossDB + 40 // default prune: ≥40 dB under direct
	}
	walls := m.Scene.Walls
	for i, wi := range walls {
		if !m.reflects(wi) {
			continue
		}
		imgA := wi.Seg.Mirror(a)
		for j, wj := range walls {
			if i == j || !m.reflects(wj) {
				continue
			}
			imgAB := wj.Seg.Mirror(imgA)
			dist := imgAB.Dist(b)
			// Reflection point on wall j (between imgA and b).
			rp2, ok := wj.Seg.ReflectionPoint(imgA, b)
			if !ok {
				continue
			}
			// Reflection point on wall i (between a and rp2).
			rp1, ok := wi.Seg.ReflectionPoint(a, rp2)
			if !ok {
				continue
			}
			loss := FSPLdB(dist, m.Freq) + m.extraLoss(dist) -
				20*math.Log10(wi.Mat.Reflectivity) -
				20*math.Log10(wj.Mat.Reflectivity)
			loss += m.crossingLossExcept(a, rp1, wi, wj) +
				m.crossingLossExcept(rp1, rp2, wi, wj) +
				m.crossingLossExcept(rp2, b, wi, wj)
			if loss > floor {
				continue
			}
			fn(Path{Dist: dist, LossDB: loss})
		}
	}
}

// crossingLossExcept sums the through-wall loss of the segment a–b over
// every wall except the bouncing walls e1 and e2 (pass the same wall
// twice for a single bounce). The endpoints are canonicalised so the
// test is symmetric (see world.TransmissionLossDB).
func (m *Model) crossingLossExcept(a, b geom.Point, e1, e2 world.Wall) float64 {
	a, b = geom.Canonical(a, b)
	link := geom.Segment{A: a, B: b}
	var loss float64
	for _, w := range m.Scene.Walls {
		if w == e1 || w == e2 {
			continue
		}
		if link.Intersects(w.Seg) {
			loss += w.Mat.TransmissionLossDB
		}
	}
	return loss
}

func (m *Model) extraLoss(d float64) float64 {
	if m.PathLossExponentExtra <= 0 || d <= 1 {
		return 0
	}
	return 10 * m.PathLossExponentExtra * math.Log10(d)
}

// OneWay returns the composite complex channel from a to b at carrier f
// (defaulting to the model's Freq when f == 0): the path sum Channel
// times the antenna gains at both ends.
func (m *Model) OneWay(a, b geom.Point, f, txGainDBi, rxGainDBi float64) complex128 {
	return m.Channel(a, b, f) * complex(signal.AmpFromDB(txGainDBi+rxGainDBi), 0)
}

// DirectOnly returns just the direct path's complex gain — useful for
// analytic expectations in tests.
func (m *Model) DirectOnly(a, b geom.Point, f float64) complex128 {
	if f == 0 {
		f = m.Freq
	}
	return m.Paths(a, b)[0].Gain(f)
}

// ReceivedPowerDBm returns the power delivered over the a→b link for a
// transmit power txDBm and the given antenna gains, using the coherent
// multipath sum (so destructive fading is possible, as in the paper's
// blind-spot discussion).
func (m *Model) ReceivedPowerDBm(a, b geom.Point, txDBm, txGainDBi, rxGainDBi float64) float64 {
	h := m.OneWay(a, b, 0, txGainDBi, rxGainDBi)
	mag := cmplx.Abs(h)
	if mag <= 0 {
		return math.Inf(-1)
	}
	return txDBm + 20*math.Log10(mag)
}

// Backscatter returns the round-trip channel tx→node→rx for a reflecting
// node (an RFID tag): the product of the two one-way channels and the
// tag's backscatter amplitude coefficient.
func (m *Model) Backscatter(tx, node, rx geom.Point, f, txGainDBi, rxGainDBi, tagCoeff float64) complex128 {
	down := m.OneWay(tx, node, f, txGainDBi, 0)
	up := m.OneWay(node, rx, f, 0, rxGainDBi)
	return down * up * complex(tagCoeff, 0)
}
