package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	goruntime "runtime"
	"time"

	"rfly/internal/capture"
	"rfly/internal/obs"
	"rfly/internal/runtime"
)

// missionShape is a closed-loop mission workload: one mission at a time
// on the calling goroutine, each built from the workload seed and its
// index.
type missionShape struct {
	sorties, ticks, sarPoints int
	// tags places the mission's tags; tag 0 is the SAR target whose
	// ground truth loc_err_m is measured against.
	tags func(r *rand.Rand) []runtime.TagSpec
	// rebuild snapshots after every sortie and continues the mission on
	// the engine runtime.Restore rebuilds from those bytes.
	rebuild bool
}

// missionLimitMs is the latency limit goodput_pct counts closed-loop
// missions against.
const missionLimitMs = 1000

// fig6Tags jitters the reference mission's two tags (runtime.DefaultConfig)
// by up to ±0.5 m.
func fig6Tags(r *rand.Rand) []runtime.TagSpec {
	j := func() float64 { return r.Float64() - 0.5 }
	return []runtime.TagSpec{
		{ID: 1, X: 30 + j(), Y: 1.5 + j()/2, Z: 1.0},
		{ID: 2, X: 29 + j(), Y: 1.0 + j()/2, Z: 1.0},
	}
}

// surveyTags puts the SAR target near the relay station and spreads
// seven more tags along the corridor.
func surveyTags(r *rand.Rand) []runtime.TagSpec {
	tags := []runtime.TagSpec{{ID: 1, X: 29.5 + r.Float64(), Y: 1.0 + r.Float64(), Z: 1.0}}
	for i := 1; i < 8; i++ {
		tags = append(tags, runtime.TagSpec{
			ID: uint16(i + 1),
			X:  4 + 34*float64(i-1)/6 + r.Float64() - 0.5,
			Y:  0.5 + 2*r.Float64(),
			Z:  0.5 + r.Float64(),
		})
	}
	return tags
}

// config is mission i of the workload under seed.
func (m missionShape) config(seed uint64, i int) runtime.Config {
	r := rand.New(rand.NewPCG(seed, uint64(i)))
	cfg := runtime.DefaultConfig(r.Uint64())
	cfg.Sorties = m.sorties
	cfg.TicksPerSortie = m.ticks
	cfg.SARPointsPerSortie = m.sarPoints
	cfg.Tags = m.tags(r)
	return cfg
}

// flown is one mission's outcome plus, when it was instrumented, its
// per-layer readings.
type flown struct {
	csv    string
	reads  int
	tries  int
	locErr float64 // metres; NaN when the mission did not localize
	layers map[string]float64
	// ticksUs are the Observer→Observer intervals (instrumented only).
	ticksUs []float64
}

// fly runs one mission through the runtime's public surface. With
// instrumented set it records spans, times every call from outside, and
// fills layers; otherwise it only runs the calls. Either way it checks
// each boundary checkpoint re-snapshots identically after Restore and
// that replaying the capture log reproduces the live location.
func (m missionShape) fly(ctx context.Context, cfg runtime.Config, instrumented bool) (flown, error) {
	var out flown
	var rec *obs.Recorder
	var cnt0 map[string]int64
	lay := map[string]float64{}
	add := func(name string, since time.Time) { lay[name] += ms(time.Since(since)) }
	if instrumented {
		rec = obs.NewRecorder(1 << 16)
		ctx = obs.WithRecorder(ctx, rec)
		cnt0 = counterSnap(obs.Default().Snapshot())
	}

	t := time.Now()
	e, err := runtime.New(cfg)
	if err != nil {
		return out, err
	}
	add("runtime.new_ms", t)
	var first, last time.Time
	observe := func(runtime.TickObs) {
		now := time.Now()
		if first.IsZero() {
			first = now
		} else {
			out.ticksUs = append(out.ticksUs, float64(now.Sub(last))/1e3)
		}
		last = now
	}
	for s := 0; s < cfg.Sorties; s++ {
		if instrumented {
			e.Observer = observe
			first = time.Time{}
		}
		t = time.Now()
		if _, err := e.RunSortie(ctx); err != nil {
			return out, err
		}
		end := time.Now()
		lay["runtime.sortie_ms"] += ms(end.Sub(t))
		if instrumented && !first.IsZero() {
			lay["runtime.prelude_ms"] += ms(first.Sub(t))
			lay["runtime.commit_ms"] += ms(end.Sub(last))
		}
		if !m.rebuild {
			continue
		}
		t = time.Now()
		ck := e.SnapshotCtx(ctx)
		add("runtime.checkpoint_ms", t)
		lay["runtime.checkpoint_kb"] = float64(len(ck)) / 1024
		t = time.Now()
		re, err := runtime.Restore(cfg, ck)
		if err != nil {
			return out, fmt.Errorf("restore after sortie %d: %w", s+1, err)
		}
		add("runtime.restore_ms", t)
		if !bytes.Equal(re.Snapshot(), ck) {
			return out, errCheck{fmt.Sprintf("seed %d: checkpoint after sortie %d re-snapshots differently after Restore", cfg.Seed, s+1)}
		}
		e = re
	}
	t = time.Now()
	res := e.ResultCtx(ctx)
	add("runtime.result_ms", t)
	out.csv = res.CSV()
	for _, s := range res.Sorties {
		out.reads += s.Reads
		out.tries += s.Attempts
	}
	out.locErr = math.NaN()
	if res.LocOK {
		out.locErr = math.Hypot(res.LocX-cfg.Tags[0].X, res.LocY-cfg.Tags[0].Y)
		// The log alone must reproduce the live solve.
		log := e.CaptureLog()
		lay["capture.log_kb"] = float64(len(log)) / 1024
		t = time.Now()
		rp, err := capture.Replay(ctx, log, capture.LiveOptions())
		if err != nil {
			return out, fmt.Errorf("replay: %w", err)
		}
		add("capture.replay_ms", t)
		if rp.Location.X != res.LocX || rp.Location.Y != res.LocY {
			return out, errCheck{fmt.Sprintf("seed %d: replayed location (%v,%v) != live (%v,%v)",
				cfg.Seed, rp.Location.X, rp.Location.Y, res.LocX, res.LocY)}
		}
	}
	if instrumented {
		spans := rec.Snapshot()
		if d := rec.Dropped(); d > 0 {
			return out, errCheck{fmt.Sprintf("seed %d: flight recorder dropped %d spans", cfg.Seed, d)}
		}
		cnt1 := counterSnap(obs.Default().Snapshot())
		retry := float64(cnt1["reader_retry_rounds_total"] - cnt0["reader_retry_rounds_total"])
		lay["reader.retry_rounds"] = retry
		lay["reader.useful_pct"] = pct(float64(out.reads), float64(out.tries)+retry)
		lay["relay.relocks"] = float64(cnt1["relay_relocks_total"] - cnt0["relay_relocks_total"])
		lay["relay.resweeps"] = float64(cnt1["relay_resweeps_total"] - cnt0["relay_resweeps_total"])
		lay["relay.loss_events"] = float64(cnt1["relay_loss_events_total"] - cnt0["relay_loss_events_total"])
		spanLayers(lay, spans)
		t = time.Now()
		b, err := obs.EncodeTrace(spans)
		if err != nil {
			return out, err
		}
		add("obs.trace_fetch_ms", t)
		lay["obs.trace_kb"] = float64(len(b)) / 1024
	}
	out.layers = lay
	return out, nil
}

// spanLayers fills the layer metrics a trace gives: self times by
// interval union, counts, busy time and coverage. It returns the
// per-name aggregate for callers that need more of it.
func spanLayers(lay map[string]float64, spans []obs.SpanRecord) map[string]*spanAgg {
	ag := aggregateSpans(spans)
	lay["runtime.sortie.self_ms"] = ag["runtime.sortie"].selfMs()
	lay["sim.read.count"] = ag["sim.read"].count()
	lay["sim.read.self_ms"] = ag["sim.read"].selfMs()
	lay["sim.sar_collect.self_ms"] = ag["sim.sar_collect"].selfMs()
	lay["relay.relock.self_ms"] = ag["relay.relock"].selfMs()
	lay["loc.stream.add.self_ms"] = ag["loc.stream.add"].selfMs()
	lay["loc.stream.snapshot.self_ms"] = ag["loc.stream.snapshot"].selfMs()
	lay["loc.stripe.busy_ms"] = ag["loc.stripe"].durMs()
	lay["capture.append.self_us"] = ag["capture.append"].selfMs() * 1e3
	lay["obs.spans_per_mission"] = float64(len(spans))
	lay["trace.sortie_coverage_pct"] = coveragePct(ag, "runtime.sortie")
	return ag
}

// errCheck marks a correctness failure, as opposed to an operation that
// failed.
type errCheck struct{ msg string }

func (e errCheck) Error() string { return e.msg }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minMissions is the fewest missions a timed run completes, however long
// that takes: the tail rule needs more than ten samples, and the
// accuracy metrics are read from the first minMissions missions so they
// repeat exactly for one seed.
const minMissions = 64

// run is a closed-loop mission workload.
func (m missionShape) run(ctx context.Context, seed uint64, seconds float64, traced bool) (*report, error) {
	rep := newReport()

	// Set-up: a whole warm-up mission fills the filter-design cache and
	// IQ pools; it is repeated so setup_s is a median.
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		t := time.Now()
		if _, err := m.fly(ctx, m.config(^seed, k), false); err != nil {
			return nil, fmt.Errorf("warm-up mission: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	rep.e2e["setup_s"] = median(setups)

	var (
		walls, lats, lags []float64
		reads, tries      int
		locErrs           []float64
		firstCSV          string
		good              int
		traceMs, plainMs  []float64
		layerRows         []map[string]float64
		ticks             []float64
	)
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	begin := time.Now()
	due := begin
	for i := 0; i < minMissions || time.Since(begin).Seconds() < seconds; i++ {
		cfg := m.config(seed, i)
		start := time.Now()
		rep.attempted++
		f, err := m.fly(ctx, cfg, false)
		end := time.Now()
		if err != nil {
			rep.fail(err)
			due = time.Now()
			continue
		}
		wall := ms(end.Sub(start))
		lat := ms(end.Sub(due))
		walls = append(walls, wall)
		lats = append(lats, lat)
		lags = append(lags, ms(start.Sub(due)))
		if lat <= missionLimitMs {
			good++
		}
		if i < minMissions {
			reads += f.reads
			tries += f.tries
			if !math.IsNaN(f.locErr) {
				locErrs = append(locErrs, f.locErr)
			}
		}
		if i == 0 {
			firstCSV = f.csv
		}
		if traced {
			// The instrumented twin flies the same seed right after, so
			// the overhead pair shares machine state.
			t := time.Now()
			g, err := m.fly(ctx, cfg, true)
			traceMs = append(traceMs, ms(time.Since(t)))
			plainMs = append(plainMs, wall)
			if err != nil {
				rep.fail(err)
			} else {
				if g.csv != f.csv {
					rep.check(fmt.Sprintf("seed %d: traced mission CSV differs from untraced", cfg.Seed))
				}
				layerRows = append(layerRows, g.layers)
				ticks = append(ticks, g.ticksUs...)
			}
		}
		due = time.Now()
	}
	elapsed := time.Since(begin).Seconds()
	goruntime.ReadMemStats(&ms1)

	n := float64(len(walls))
	if traced {
		statRows(rep.layers, layerRows, missionLayerKeys, median)
		rep.layers["runtime.tick_us"] = median(ticks)
		rep.layers["obs.trace_overhead_pct"] = pct(median(traceMs)-median(plainMs), median(plainMs))
	} else if firstCSV != "" {
		// Tracing must not perturb the simulation.
		g, err := m.fly(ctx, m.config(seed, 0), true)
		if err != nil {
			rep.fail(err)
		} else if g.csv != firstCSV {
			rep.check("traced mission 0 CSV differs from its untraced run")
		}
	}
	rep.gcLayers(ms0, ms1, n+float64(len(layerRows)))
	if t, ok := tailOf(lags); ok {
		rep.layers["gen.lag_tail_ms"] = t.Value
	}
	rep.layers["error_pct"] = pct(float64(rep.failed), float64(rep.attempted))

	rep.e2e["missions_per_s"] = n / elapsed
	rep.setTiming("mission", walls)
	rep.setTiming("latency", lats)
	rep.e2e["goodput_pct"] = pct(float64(good), float64(rep.attempted))
	rep.allocs(ms0, ms1, n)
	rep.e2e["read_rate_pct"] = pct(float64(reads), float64(tries))
	rep.e2e["loc_err_m"] = mean(locErrs)
	rep.note("read_rate_pct and loc_err_m over the first %d missions; %d of them localized", minMissions, len(locErrs))
	return rep, nil
}

// missionLayerKeys are the per-mission layer readings fly records,
// reported as medians over the instrumented missions.
var missionLayerKeys = []string{
	"runtime.new_ms", "runtime.sortie_ms", "runtime.prelude_ms", "runtime.commit_ms",
	"runtime.checkpoint_ms", "runtime.checkpoint_kb", "runtime.restore_ms", "runtime.result_ms",
	"runtime.sortie.self_ms",
	"sim.read.count", "sim.read.self_ms", "sim.sar_collect.self_ms",
	"reader.retry_rounds", "reader.useful_pct",
	"relay.relocks", "relay.resweeps", "relay.loss_events", "relay.relock.self_ms",
	"loc.stream.add.self_ms", "loc.stream.snapshot.self_ms", "loc.stripe.busy_ms",
	"capture.append.self_us", "capture.log_kb", "capture.replay_ms",
	"obs.spans_per_mission", "trace.sortie_coverage_pct", "obs.trace_fetch_ms", "obs.trace_kb",
}

// statRows sets each key to stat over the rows that measured it; a key
// no row measured stays unset (printed as n/a).
func statRows(dst map[string]float64, rows []map[string]float64, keys []string, stat func([]float64) float64) {
	for _, k := range keys {
		var xs []float64
		for _, row := range rows {
			if v, ok := row[k]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			dst[k] = stat(xs)
		}
	}
}
