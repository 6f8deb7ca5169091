package sim

import (
	"math"
	"math/cmplx"

	"rfly/internal/geom"
	"rfly/internal/signal"
)

// The link memo. A tick reads the same few links over and over: every
// tag's budget and channel re-reads the reader↔relay half-link, and the
// relay↔tag half-link is read on the downlink, the uplink and again for
// the channel estimate. Each read is a full image-method path sum. The
// memo computes each distinct link once per geometry and hands back the
// stored bits afterwards.
//
// Exactness rests on two invariants: the deployment's Model and Scene are
// never mutated after New, and Model.Channel is exactly reciprocal when
// geom.Canonical swaps the endpoints (Channel computes every quantity
// from the canonical pair). The key therefore holds the canonical
// endpoints, the carrier, and gA+gB (commutative in IEEE arithmetic), and
// a hit needs every key bit to match. Only deterministic geometry is
// memoised; shadowing, phase jitter and estimation noise are drawn by the
// callers exactly as before.

// linkSlots is the table size: a power of two comfortably above the
// links one geometry reads (reader↔relay, relay↔tag per tag, interferer
// and jammer links).
const linkSlots = 64

// linkKey is the bit pattern of (canonical a, canonical b, carrier, gA+gB).
type linkKey [8]uint64

type linkEntry struct {
	key  linkKey
	used bool
	h    complex128 // Channel · AmpFromDB(gA+gB)
	db   float64    // 20·log10|h|, −Inf for a dead link
}

// linkMemo is a direct-mapped table of link channels. It is owned by one
// deployment and, like the deployment's RNG streams, not safe for
// concurrent use.
type linkMemo struct {
	slots        [linkSlots]linkEntry
	hits, misses int64
}

// slot hashes the key into the table: a multiply-xor chain whose top bits
// depend on every key bit.
func (k *linkKey) slot() int {
	var x uint64
	for _, w := range k {
		x = (x ^ w) * 0x9E3779B97F4A7C15
	}
	return int(x >> (64 - 6)) // log2(linkSlots) = 6
}

// link returns the memoised a→b channel at carrier f (the model's carrier
// when f == 0) with antenna gains gA and gB: the complex amplitude, as
// Model.OneWay computes it, and its power gain in dB.
func (d *Deployment) link(a, b geom.Point, f, gA, gB float64) (complex128, float64) {
	if f == 0 {
		f = d.Model.Freq
	}
	a, b = geom.Canonical(a, b)
	g := gA + gB
	key := linkKey{
		math.Float64bits(a.X), math.Float64bits(a.Y), math.Float64bits(a.Z),
		math.Float64bits(b.X), math.Float64bits(b.Y), math.Float64bits(b.Z),
		math.Float64bits(f), math.Float64bits(g),
	}
	e := &d.links.slots[key.slot()]
	if e.used && e.key == key {
		d.links.hits++
		return e.h, e.db
	}
	d.links.misses++
	h := d.Model.Channel(a, b, f) * complex(signal.AmpFromDB(g), 0)
	db := math.Inf(-1)
	if mag := cmplx.Abs(h); !(mag <= 0) {
		db = 20 * math.Log10(mag)
	}
	*e = linkEntry{key: key, used: true, h: h, db: db}
	return h, db
}

// oneWay is the memoised Model.OneWay.
func (d *Deployment) oneWay(a, b geom.Point, f, gA, gB float64) complex128 {
	h, _ := d.link(a, b, f, gA, gB)
	return h
}

// gainDB is the link's coherent channel gain in dB at carrier f,
// antenna gains included.
func (d *Deployment) gainDB(a, b geom.Point, f, gA, gB float64) float64 {
	_, db := d.link(a, b, f, gA, gB)
	return db
}

// powerDBm is the memoised Model.ReceivedPowerDBm: the power delivered
// over the a→b link at the model's carrier for a transmit power txDBm.
func (d *Deployment) powerDBm(a, b geom.Point, txDBm, gA, gB float64) float64 {
	return txDBm + d.gainDB(a, b, 0, gA, gB)
}

// LinkStats returns how many channel reads the link memo served from its
// table (hits) and how many it computed (misses) over the deployment's
// life.
func (d *Deployment) LinkStats() (hits, misses int64) {
	return d.links.hits, d.links.misses
}
