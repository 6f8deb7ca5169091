package sim

import (
	"math"

	"rfly/internal/geom"
	"rfly/internal/signal"
)

// Interferer is another RFID reader transmitting in the same band (§4.3's
// multi-reader setting). Its carrier sits FreqOffset away from our
// reader's; the relay locks to whichever reader is strongest at its own
// position, and its baseband filters then reject the other.
type Interferer struct {
	Pos           geom.Point
	TxPowerDBm    float64
	AntennaGainDB float64
	// FreqOffset is the interferer's carrier offset from our reader's
	// channel, Hz. Zero means co-channel (the case §4.3's footnote defers
	// to multi-reader collision recovery).
	FreqOffset float64
}

// AddInterferer registers an interfering reader.
func (d *Deployment) AddInterferer(i Interferer) {
	d.Interferers = append(d.Interferers, i)
}

// RelayLockOK reports whether the relay's Eq. 5 strongest-carrier rule
// locks onto OUR reader at the current relay position: true when our
// reader's received power at the relay beats every interferer's and
// every active in-band jammer's — a barrage jammer that out-powers the
// reader at the relay's front end captures the sweep and the relay
// forwards noise instead of our carrier.
func (d *Deployment) RelayLockOK() bool {
	if d.Relay == nil {
		return true
	}
	rcfg := d.Reader.Cfg
	ours := d.powerDBm(d.ReaderPos, d.RelayPos, rcfg.TxPowerDBm,
		rcfg.AntennaGainDB, 2)
	for _, i := range d.Interferers {
		theirs := d.powerDBm(i.Pos, d.RelayPos, i.TxPowerDBm, i.AntennaGainDB, 2)
		if theirs > ours {
			return false
		}
	}
	for _, j := range d.Jammers {
		if !j.ActiveAt(d.jamTick) {
			continue
		}
		theirs := d.powerDBm(j.Pos, d.RelayPos, j.TxPowerDBm, j.AntennaGainDB, 2)
		if theirs > ours {
			return false
		}
	}
	return true
}

// readerRxRejectionDB is how much the reader's RX channelization
// suppresses off-channel carriers: the chip-matched filter integrates
// over 1 MHz around its own carrier, and an adjacent-channel CW lands
// deep in its stop band.
const readerRxRejectionDB = 75

// filterRejectionDB returns how much the relay's baseband filtering
// attenuates an interferer at the given carrier offset: the measured FIR
// response of the downlink low-pass at that offset (the §4.3 mechanism —
// once locked, everything off-channel lands in the stop band). Co-channel
// interference gets no rejection.
func (d *Deployment) filterRejectionDB(freqOffset float64) float64 {
	if d.Relay == nil || freqOffset == 0 {
		return 0
	}
	off := math.Abs(freqOffset)
	if off >= d.Relay.Cfg.Fs/2 {
		off = d.Relay.Cfg.Fs/2 - 1
	}
	return -d.Relay.LPF.ResponseAt(off, d.Relay.Cfg.Fs)
}

// interferenceAtReaderW returns the total interference power (watts)
// landing in the reader's receive band, combining two paths per
// interferer: forwarded through the relay (attenuated by the lock
// filters) and direct to the reader (attenuated by the reader's own
// channel filter).
func (d *Deployment) interferenceAtReaderW() float64 {
	if len(d.Interferers) == 0 {
		return 0
	}
	rcfg := d.Reader.Cfg
	var total float64
	for _, i := range d.Interferers {
		// Direct path.
		direct := d.powerDBm(i.Pos, d.ReaderPos, i.TxPowerDBm,
			i.AntennaGainDB, rcfg.AntennaGainDB)
		if i.FreqOffset != 0 {
			direct -= readerRxRejectionDB
		}
		total += signal.WattsFromDBm(direct)
		// Through-relay path (only when a relay is forwarding).
		if d.Relay != nil && d.Gains.Stable {
			atRelay := d.powerDBm(i.Pos, d.RelayPos, i.TxPowerDBm,
				i.AntennaGainDB, 2)
			fwd := atRelay - d.filterRejectionDB(i.FreqOffset) + d.Gains.UplinkGainDB +
				d.gainDB(d.RelayPos, d.ReaderPos, d.Model.Freq, 2, rcfg.AntennaGainDB)
			if i.FreqOffset != 0 {
				fwd -= readerRxRejectionDB
			}
			total += signal.WattsFromDBm(fwd)
		}
	}
	return total
}

// applyInterference degrades an SNR to an SINR given the interference
// (cooperating readers plus active jammers) at the reader and the signal
// power there.
func (d *Deployment) applyInterference(b Budget) Budget {
	iw := d.interferenceAtReaderW() + d.jammerAtReaderW()
	if iw <= 0 || math.IsInf(b.SNRdB, -1) || math.IsInf(b.ReaderRxDBm, -1) {
		return b
	}
	sigW := signal.WattsFromDBm(b.ReaderRxDBm)
	noiseW := sigW / signal.FromDB(b.SNRdB)
	b.SNRdB = signal.DB(sigW / (noiseW + iw))
	return b
}
