package main

import (
	"fmt"
	"io"
	"sort"
)

// layerDef is one per-layer metric and, written down before any change
// is measured, the end-to-end metric it should move and on which
// workload. A workload that does not exercise a layer prints it as n/a
// (value 0).
type layerDef struct{ name, unit, moves string }

// perLayer are the metrics printed with -trace 1. Times are per mission
// (summed over its sorties), unless the name says otherwise: medians over
// closed-loop missions, means over a served run's batch traces.
var perLayer = []layerDef{
	{"runtime.new_ms", "ms", "mission_p50_ms on fig6_rebuild"},
	{"runtime.sortie_ms", "ms", "missions_per_s, mission_p50_ms on fig6_rebuild and survey_dense"},
	{"runtime.prelude_ms", "ms", "missions_per_s, mission_p50_ms on fig6_rebuild (RunSortie entry to first Observer tick: sim.New+relay.MeasureAll, watchdog, launch relock)"},
	{"runtime.tick_us", "us", "missions_per_s, mission_p50_ms on survey_dense (Observer to Observer, p50)"},
	{"runtime.commit_ms", "ms", "mission_p50_ms on survey_dense (last tick to return: SAR pass, stream add, capture append)"},
	{"runtime.checkpoint_ms", "ms", "mission_p50_ms on fig6_rebuild"},
	{"runtime.checkpoint_kb", "KiB", "mission_p50_ms on fig6_rebuild (last boundary's checkpoint size)"},
	{"runtime.restore_ms", "ms", "mission_p50_ms on fig6_rebuild"},
	{"runtime.result_ms", "ms", "mission_p50_ms on survey_dense"},
	{"runtime.sortie.self_ms", "ms", "mission_p50_ms on fig6_rebuild (build + per-tick link budget; no span of its own yet)"},
	{"sim.read.count", "count", "missions_per_s, mission_allocs on survey_dense"},
	{"sim.read.self_ms", "ms", "missions_per_s, mission_allocs on survey_dense"},
	{"sim.sar_collect.self_ms", "ms", "missions_per_s on survey_dense"},
	{"reader.retry_rounds", "count", "read_rate_pct, missions_per_s on survey_dense"},
	{"reader.useful_pct", "%", "read_rate_pct, missions_per_s on survey_dense (reads / (attempts + retry rounds))"},
	{"relay.relocks", "count", "read_rate_pct on all workloads"},
	{"relay.resweeps", "count", "read_rate_pct on all workloads"},
	{"relay.loss_events", "count", "read_rate_pct on all workloads"},
	{"relay.relock.self_ms", "ms", "mission_p50_ms on fig6_rebuild"},
	{"loc.stream.add.self_ms", "ms", "mission_p50_ms on survey_dense"},
	{"loc.stream.snapshot.self_ms", "ms", "mission_p50_ms on survey_dense"},
	{"loc.stripe.busy_ms", "ms", "mission_p50_ms on survey_dense (summed stripe durations, parallel stripes each counted)"},
	{"capture.append.self_us", "us", "mission_p50_ms on fig6_rebuild"},
	{"capture.log_kb", "KiB", "mission_p50_ms on fig6_rebuild"},
	{"capture.replay_ms", "ms", "mission_p50_ms on fig6_rebuild"},
	{"obs.trace_overhead_pct", "%", "none: bounds how far traced numbers can be trusted (traced vs untraced mission time)"},
	{"obs.spans_per_mission", "count", "none: bounds how far traced numbers can be trusted"},
	{"trace.sortie_coverage_pct", "%", "none: share of runtime.sortie time its child spans cover"},
	{"obs.trace_fetch_ms", "ms", "latency_tail_ms on serve_open (mission workloads: encoding the trace)"},
	{"obs.trace_kb", "KiB", "latency_tail_ms on serve_open"},
	{"fleet.wait_p50_ms", "ms", "latency_tail_ms, goodput_pct on serve_open (admission wait, from each response)"},
	{"fleet.wait_tail_ms", "ms", "latency_tail_ms, goodput_pct on serve_open"},
	{"fleet.run_ms", "ms", "latency_p50_ms on serve_open (p50 of each response's run_ms)"},
	{"fleet.http_ms", "ms", "latency_p50_ms on serve_open (client latency - wait - run, p50)"},
	{"fleet.batch_size_mean", "count", "latency_tail_ms, goodput_pct on serve_open"},
	{"fleet.batched_pct", "%", "latency_tail_ms, goodput_pct on serve_open"},
	{"fleet.shard_busy_pct", "%", "latency_tail_ms on serve_open"},
	{"fleet.rejected", "count", "goodput_pct on serve_open (429s, /metrics delta)"},
	{"fleet.exclusive_coalesced", "count", "none: 1 while fleet batches a queued Exclusive request behind a non-exclusive head of the same region and plan (a known defect, probed apart from the load on serve_open)"},
	{"federation.node_wait_ms", "ms", "latency_p50_ms on federate_open (node's own record, p50)"},
	{"federation.node_run_ms", "ms", "latency_p50_ms on federate_open (node's own record, p50)"},
	{"federation.overhead_ms", "ms", "latency_p50_ms, error_pct on federate_open (client latency - node wait - node run, p50)"},
	{"federation.replicated", "count", "latency_p50_ms on federate_open (per mission)"},
	{"federation.capture_replicated", "count", "latency_p50_ms on federate_open (per mission)"},
	{"federation.capture_full_syncs", "count", "latency_p50_ms on federate_open (per mission)"},
	{"federation.spilled", "count", "latency_p50_ms on federate_open"},
	{"federation.failovers", "count", "error_pct on federate_open (0 expected)"},
	{"go.gc_cycles", "count", "mission_tail_ms, latency_tail_ms on all workloads (per mission)"},
	{"go.gc_pause_ms", "ms", "mission_tail_ms, latency_tail_ms on all workloads (per mission)"},
	{"gen.lag_tail_ms", "ms", "none: shows whether the server or the generator was measured"},
	{"error_pct", "%", "the result line's failed/attempted, as a percentage"},
}

// ledger prints where a closed-loop mission's time went: each stage's
// share of the summed top-level stages, and the largest single share.
// Served missions run inside the scheduler, out of the Observer's reach,
// so they get no ledger.
func ledger(w io.Writer, name string, lay map[string]float64) {
	if _, ok := lay["runtime.prelude_ms"]; !ok {
		return
	}
	total := 0.0
	for _, k := range []string{"runtime.new_ms", "runtime.sortie_ms", "runtime.checkpoint_ms",
		"runtime.restore_ms", "runtime.result_ms", "capture.replay_ms"} {
		total += lay[k]
	}
	// Disjoint stages: the tick loop is the sortie less its prelude and
	// commit, and sim.read self time is carved out of it.
	loop := lay["runtime.sortie_ms"] - lay["runtime.prelude_ms"] - lay["runtime.commit_ms"]
	stages := map[string]float64{
		"runtime.new_ms":        lay["runtime.new_ms"],
		"runtime.prelude_ms":    lay["runtime.prelude_ms"],
		"sim.read.self_ms":      lay["sim.read.self_ms"],
		"tick loop other":       loop - lay["sim.read.self_ms"],
		"runtime.commit_ms":     lay["runtime.commit_ms"],
		"runtime.checkpoint_ms": lay["runtime.checkpoint_ms"],
		"runtime.restore_ms":    lay["runtime.restore_ms"],
		"runtime.result_ms":     lay["runtime.result_ms"],
		"capture.replay_ms":     lay["capture.replay_ms"],
	}
	keys := make([]string, 0, len(stages))
	for k := range stages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return stages[keys[i]] > stages[keys[j]] })
	fmt.Fprintf(w, "# ledger %s: %.2f ms of staged mission time\n", name, total)
	for _, k := range keys {
		fmt.Fprintf(w, "#   %-22s %10.3f ms %6.1f%%\n", k, stages[k], pct(stages[k], total))
	}
	fmt.Fprintf(w, "# largest share: %s\n", keys[0])
}
