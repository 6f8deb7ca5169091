package propagation

import (
	"math"
	"testing"

	"rfly/internal/geom"
	"rfly/internal/world"
)

// corridorModel is a through-wall corridor where every wall bounces
// (MinReflectivity lowered below drywall's) and the floor bounces too.
func corridorModel(secondOrder bool) *Model {
	m := NewModel(world.CorridorNLoS(40, 3, 2), f900)
	m.GroundReflectivity = 0.3
	m.SecondOrder = secondOrder
	m.MinReflectivity = 0.1 // let drywall spawn bounces too
	return m
}

// sameBits reports whether two channels are bit-for-bit equal.
func sameBits(x, y complex128) bool {
	return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
		math.Float64bits(imag(x)) == math.Float64bits(imag(y))
}

func TestChannelMatchesPathSum(t *testing.T) {
	// Channel and Paths walk one enumeration: the allocation-free sum
	// must equal the sum over the slice bit-for-bit, in every scene.
	for _, second := range []bool{false, true} {
		m := corridorModel(second)
		for _, ab := range [][2]geom.Point{
			{geom.P(1, 1, 1.5), geom.P(35, 2, 0.3)},
			{geom.P(20, 0.5, 2), geom.P(3, 2.5, 0.5)},
			{geom.P(12, 1.5, 1), geom.P(12, 1.5, 3)}, // vertical
		} {
			var want complex128
			for _, p := range m.Paths(ab[0], ab[1]) {
				want += p.Gain(f900)
			}
			if got := m.Channel(ab[0], ab[1], 0); !sameBits(got, want) {
				t.Fatalf("second=%v %v→%v: Channel %v, path sum %v", second, ab[0], ab[1], got, want)
			}
		}
	}
}

func TestChannelAllocationFree(t *testing.T) {
	a, b := geom.P(1, 1, 1.5), geom.P(35, 2, 0.3)
	for _, second := range []bool{false, true} {
		m := corridorModel(second)
		if n := len(m.Paths(a, b)); n < 3 {
			t.Fatalf("second=%v: only %d paths; the corridor should bounce", second, n)
		}
		allocs := testing.AllocsPerRun(100, func() { m.Channel(a, b, 0) })
		if allocs != 0 {
			t.Fatalf("second=%v: Channel allocates %v objects per call", second, allocs)
		}
	}
}

// FuzzChannelReciprocity pins what the simulator's link memo relies on:
// whenever geom.Canonical swaps a link's endpoints, Channel(a, b) and
// Channel(b, a) are the same bits, ground and second-order bounces on.
func FuzzChannelReciprocity(f *testing.F) {
	scenes := []*world.Scene{
		world.Corridor(40, 3),
		world.CorridorNLoS(40, 3, 2),
		world.Warehouse(30, 20, 4),
	}
	f.Add(uint8(0), 1.0, 1.0, 1.5, 35.0, 2.0, 0.3, 0.0)
	f.Add(uint8(1), 20.0, 0.5, 2.0, 3.0, 2.5, 0.5, 2e6)
	f.Add(uint8(2), 3.0, 4.0, 1.0, 27.0, 4.0, 1.0, 0.0)        // grazes a shelf end
	f.Add(uint8(2), 3.0, 8.0, 0.0, 27.0, 12.0, 2.0, 1e6)       // tag on the floor
	f.Add(uint8(1), 24.0, 0.0, 1.0, 24.0, 3.0, 1.0, 0.0)       // along a cross-wall
	f.Add(uint8(2), 10.0, 4.0, 1.0, 10.0, 4.0000001, 1.0, 0.0) // X tie, Y decides
	f.Fuzz(func(t *testing.T, scene uint8, ax, ay, az, bx, by, bz, df float64) {
		for _, v := range []float64{ax, ay, az, bx, by, bz} {
			if math.IsNaN(v) || math.Abs(v) > 1e4 {
				t.Skip()
			}
		}
		if math.IsNaN(df) || math.Abs(df) > 100e6 {
			t.Skip()
		}
		a, b := geom.P(ax, ay, az), geom.P(bx, by, bz)
		if ax == bx && ay == by {
			t.Skip() // Canonical keeps the order of a vertical link
		}
		m := NewModel(scenes[int(scene)%len(scenes)], f900)
		m.GroundReflectivity = 0.3
		m.SecondOrder = true
		fc := f900 + df
		if hab, hba := m.Channel(a, b, fc), m.Channel(b, a, fc); !sameBits(hab, hba) {
			t.Fatalf("Channel(%v, %v) = %v but reversed = %v", a, b, hab, hba)
		}
	})
}

// BenchmarkChannel is the link memo's miss path: one corridor link with
// the floor bounce, no caching anywhere.
func BenchmarkChannel(b *testing.B) {
	m := corridorModel(false)
	p, q := geom.P(1, 1, 1.5), geom.P(35, 2, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Channel(p, q, 0)
	}
}
