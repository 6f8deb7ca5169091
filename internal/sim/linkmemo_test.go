package sim

import (
	"math"
	"math/cmplx"
	"testing"

	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/rng"
	"rfly/internal/world"
)

// TestLinkMemoExact walks a relay through a warehouse and checks every
// memoised read against a direct, uncached Model call bit-for-bit: both
// link directions, every carrier/gain combination the budgets use, and
// vertical links (relay straight above a tag), over far more distinct
// links than the table holds, so slots collide and evict. A second pass
// revisits the walk after eviction.
func TestLinkMemoExact(t *testing.T) {
	d := New(Config{
		Scene:              world.Warehouse(30, 20, 4),
		ReaderPos:          geom.P(1, 1, 1.5),
		UseRelay:           true,
		RelayPos:           geom.P(10, 5, 2),
		GroundReflectivity: 0.3,
		ExtraPathLossExp:   0.5,
	}, 11)
	m := d.Model
	src := rng.New(5)
	var nodes []geom.Point
	for i := 0; i < 9; i++ {
		nodes = append(nodes, geom.P(src.Uniform(1, 29), src.Uniform(1, 19), src.Uniform(0, 1)))
	}
	// Links that differ in a single key coordinate: stacked pairs (same X
	// and Y) on both sides of the walk and a column pair (same X and Z),
	// plus the reader and an interferer site.
	nodes = append(nodes,
		geom.P(2, 9, 0.2), geom.P(2, 9, 1.2), geom.P(20, 9, 0.2), geom.P(20, 9, 1.2),
		geom.P(3, 4, 0.5), geom.P(3, 12, 0.5),
		d.ReaderPos, geom.P(25, 18, 2))
	walk := make([]geom.Point, 24)
	p := d.RelayPos
	for i := range walk {
		p = geom.P(p.X+src.Uniform(-1, 1), p.Y+src.Uniform(-1, 1), p.Z+src.Uniform(-0.3, 0.3))
		walk[i] = p
	}
	f2 := m.Freq + d.Relay.Cfg.ShiftHz
	gains := []struct{ f, gA, gB float64 }{
		{0, 6, 2}, {m.Freq, 2, 6}, {f2, 2, 0}, {f2, 0, 2}, {0, 6, 0},
	}
	check := func(a, b geom.Point) {
		t.Helper()
		for _, g := range gains {
			want := m.OneWay(a, b, g.f, g.gA, g.gB)
			if got := d.oneWay(a, b, g.f, g.gA, g.gB); !sameBits(got, want) {
				t.Fatalf("oneWay(%v→%v, %+v) = %v, Model.OneWay %v", a, b, g, got, want)
			}
			wantDB := math.Inf(-1)
			if mag := cmplx.Abs(want); mag > 0 {
				wantDB = 20 * math.Log10(mag)
			}
			if got := d.gainDB(a, b, g.f, g.gA, g.gB); math.Float64bits(got) != math.Float64bits(wantDB) {
				t.Fatalf("gainDB(%v→%v, %+v) = %v, want %v", a, b, g, got, wantDB)
			}
			wantP := m.ReceivedPowerDBm(a, b, 30, g.gA, g.gB)
			if got := d.powerDBm(a, b, 30, g.gA, g.gB); math.Float64bits(got) != math.Float64bits(wantP) {
				t.Fatalf("powerDBm(%v→%v, %+v) = %v, Model.ReceivedPowerDBm %v", a, b, g, got, wantP)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, a := range nodes { // static links: reader→tag, tag→tag
			for _, b := range nodes[i+1:] {
				check(a, b)
				check(b, a)
			}
		}
		for _, r := range walk {
			d.MoveRelay(r)
			below := geom.P(r.X, r.Y, 0.3) // vertical link: same X and Y
			for _, n := range append(nodes, below) {
				check(r, n)
				check(n, r) // reversed: a hit through the canonical key
				check(r, n) // repeated: a plain hit
			}
		}
	}
	hits, misses := d.LinkStats()
	distinct := len(walk) * (len(nodes) + 1) * len(gains)
	if misses <= linkSlots || hits == 0 {
		t.Fatalf("hits=%d misses=%d: the walk should overflow the %d-slot table and still hit", hits, misses, linkSlots)
	}
	if misses < int64(distinct) {
		t.Fatalf("misses=%d below the %d distinct links read", misses, distinct)
	}
}

func sameBits(x, y complex128) bool {
	return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
		math.Float64bits(imag(x)) == math.Float64bits(imag(y))
}

// BenchmarkLinkBudget is the steady-state per-tick read: eight tags under
// a hovering relay, every budget served from the link memo.
func BenchmarkLinkBudget(b *testing.B) {
	d := New(Config{
		Scene:              world.Warehouse(30, 20, 4),
		ReaderPos:          geom.P(1, 1, 1.5),
		UseRelay:           true,
		RelayPos:           geom.P(14, 6, 2),
		GroundReflectivity: 0.3,
	}, 3)
	for i := 0; i < 8; i++ {
		d.AddTag(epc.NewEPC96(uint16(i), 1, 2, 3, 4, 5), geom.P(12+float64(i)*0.5, 7, 0.5))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tg := range d.Tags {
			d.LinkBudget(tg)
		}
	}
}
