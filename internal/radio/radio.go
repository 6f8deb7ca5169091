// Package radio models the RF hardware elements the RFly relay PCB is built
// from (§6.1 of the paper): amplifiers with gain, noise figure and 1-dB
// compression, variable-gain amplifiers, a power amplifier, frequency
// synthesizers, and antennas with finite port-to-port isolation.
//
// Elements operate on complex-baseband buffers from internal/signal, and
// also expose their scalar link-budget parameters so the fast (analytic)
// simulation path can reason about the same hardware without synthesizing
// waveforms.
package radio

import (
	"fmt"
	"math"

	"rfly/internal/rng"
	"rfly/internal/signal"
)

// Amplifier models an RF gain stage: power gain in dB, a noise figure, and
// a 1-dB compression point at the output. The zero value is a transparent
// (0 dB, noiseless, uncompressed) stage.
type Amplifier struct {
	GainDB  float64 // small-signal power gain
	NFdB    float64 // noise figure
	P1dBm   float64 // output-referred 1-dB compression point; 0 disables
	HasP1dB bool    // set to enable compression (P1dBm may legitimately be 0 dBm)
}

// Gain returns the small-signal linear power gain.
func (a Amplifier) Gain() float64 { return signal.FromDB(a.GainDB) }

// OutputPower returns the output power (watts) for an input power (watts),
// applying Rapp-model soft compression around the 1-dB point when enabled.
func (a Amplifier) OutputPower(inWatts float64) float64 {
	out := inWatts * a.Gain()
	if !a.HasP1dB {
		return out
	}
	return rappCompress(out, signal.WattsFromDBm(a.P1dBm))
}

// rappCompress applies a Rapp (p=2) soft limiter in the power domain. psat
// is chosen so that the output is exactly 1 dB below linear at the 1-dB
// compression point p1.
func rappCompress(linearOut, p1 float64) float64 {
	if p1 <= 0 {
		return linearOut
	}
	// For Rapp order p: out = in / (1+(in/psat)^p)^(1/p).
	// At in = p1 we want out = p1/10^(0.1): solve for psat with p = 2.
	// (p1/psat)^2 = 10^(0.2) − 1  →  psat = p1 / sqrt(10^0.2 − 1).
	const k = 0.58489319246111348 // 10^0.2 − 1
	psat := p1 / math.Sqrt(k)
	r := linearOut / psat
	return linearOut / math.Sqrt(1+r*r)
}

// Apply amplifies the waveform in place (amplitude domain), applying soft
// compression per-sample when enabled, and adds the stage's own thermal
// noise over bandwidth bw using norm for Gaussian draws. Pass bw = 0 to
// skip noise injection (e.g. when the caller accounts for noise at the
// chain level).
func (a Amplifier) Apply(x []complex128, bw float64, norm func() float64) []complex128 {
	g := math.Sqrt(a.Gain())
	var psat float64
	if a.HasP1dB {
		const k = 0.58489319246111348
		psat = signal.WattsFromDBm(a.P1dBm) / math.Sqrt(k)
	}
	for i := range x {
		v := x[i] * complex(g, 0)
		if a.HasP1dB {
			p := real(v)*real(v) + imag(v)*imag(v)
			if p > 0 {
				r := p / psat
				scale := math.Sqrt(1 / math.Sqrt(1+r*r))
				v *= complex(scale, 0)
			}
		}
		x[i] = v
	}
	if bw > 0 && norm != nil {
		// Output-referred added noise: (F−1)·kTB·G.
		added := (signal.FromDB(a.NFdB) - 1) * signal.ThermalNoiseWatts(bw, 0) * a.Gain()
		signal.AWGN(x, added, norm)
	}
	return x
}

// VGA is a variable-gain amplifier with a programmable gain clamped to a
// hardware range. The relay's gain-programming logic (§6.1) sets these.
type VGA struct {
	MinDB, MaxDB float64
	NFdB         float64
	gainDB       float64
}

// NewVGA returns a VGA with the given range, initially at minimum gain.
func NewVGA(minDB, maxDB, nfDB float64) *VGA {
	return &VGA{MinDB: minDB, MaxDB: maxDB, NFdB: nfDB, gainDB: minDB}
}

// Clamp returns the gain the VGA would apply for a db request: db limited
// to the hardware range. It does not program anything.
func (v *VGA) Clamp(db float64) float64 {
	if db < v.MinDB {
		return v.MinDB
	}
	if db > v.MaxDB {
		return v.MaxDB
	}
	return db
}

// SetGainDB programs the gain, clamping to the hardware range, and returns
// the gain actually applied.
func (v *VGA) SetGainDB(db float64) float64 {
	v.gainDB = v.Clamp(db)
	return v.gainDB
}

// GainDB returns the programmed gain.
func (v *VGA) GainDB() float64 { return v.gainDB }

// Amplifier returns the VGA's current setting as a fixed Amplifier stage.
func (v *VGA) Amplifier() Amplifier { return Amplifier{GainDB: v.gainDB, NFdB: v.NFdB} }

// Synthesizer models a frequency synthesizer (PLL + VCO). Each power-up
// produces an oscillator with a random initial phase; an unlocked
// synthesizer additionally carries a crystal ppm error. Sharing one
// Synthesizer between the relay's downlink downconverter and uplink
// upconverter is what makes the mirrored architecture phase-preserving.
type Synthesizer struct {
	Name   string
	PPM    float64 // crystal error when not locked to the reader
	RefCar float64 // absolute carrier the ppm applies to (Hz)

	osc signal.Oscillator
	set bool
}

// Tune points the synthesizer at frequency offset freq (Hz from band
// center), drawing a fresh random phase from src — the "random, unknown
// phase offset" of Eq. 6. Subsequent Oscillator calls return the same
// locked oscillator until the next Tune.
func (s *Synthesizer) Tune(freq float64, src *rng.Source) {
	s.osc = signal.Oscillator{Freq: freq, Phase: src.Phase(), PPM: s.PPM, Ref: s.RefCar}
	s.set = true
}

// Oscillator returns the currently tuned oscillator, or an error if the
// synthesizer has never been tuned — which happens in the field when a
// fault knocks a relay back to its power-on state, so it must be
// survivable rather than a panic.
func (s *Synthesizer) Oscillator() (signal.Oscillator, error) {
	if !s.set {
		return signal.Oscillator{}, fmt.Errorf("radio: synthesizer %q used before Tune", s.Name)
	}
	return s.osc, nil
}

// Tuned reports whether Tune has been called.
func (s *Synthesizer) Tuned() bool { return s.set }

// Antenna models one relay antenna: its gain and the port-to-port coupling
// (isolation) to a co-located antenna on the same board. The paper's
// compact relay spaces antennas at 10 cm and relies on ceramic patch
// polarization for a few tens of dB of isolation; that is the *analog
// baseline's only* isolation mechanism (§7.1).
type Antenna struct {
	GainDBi     float64
	IsolationDB float64 // coupling loss to the paired antenna port
}

// CouplingGainDB returns the (negative) power gain of the leakage path into
// the paired antenna port.
func (a Antenna) CouplingGainDB() float64 { return -a.IsolationDB }

// Chain is an ordered cascade of amplifier stages. It exposes composite
// gain and noise figure (Friis) for link-budget computation, and can apply
// the full cascade to a waveform.
type Chain struct {
	Stages []Amplifier
}

// GainDB returns the cascade small-signal gain in dB.
func (c Chain) GainDB() float64 {
	var g float64
	for _, s := range c.Stages {
		g += s.GainDB
	}
	return g
}

// NoiseFigureDB returns the cascade noise figure via the Friis formula.
func (c Chain) NoiseFigureDB() float64 {
	if len(c.Stages) == 0 {
		return 0
	}
	f := signal.FromDB(c.Stages[0].NFdB)
	g := c.Stages[0].Gain()
	for _, s := range c.Stages[1:] {
		f += (signal.FromDB(s.NFdB) - 1) / g
		g *= s.Gain()
	}
	return signal.DB(f)
}

// OutputPower runs an input power through every stage's compression curve.
func (c Chain) OutputPower(inWatts float64) float64 {
	p := inWatts
	for _, s := range c.Stages {
		p = s.OutputPower(p)
	}
	return p
}

// Apply runs the waveform through every stage in order.
func (c Chain) Apply(x []complex128, bw float64, norm func() float64) []complex128 {
	for _, s := range c.Stages {
		x = s.Apply(x, bw, norm)
	}
	return x
}
