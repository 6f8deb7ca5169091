package main

import (
	"sort"

	"rfly/internal/obs"
)

// spanAgg totals one span name over a trace.
type spanAgg struct {
	Count  int
	DurNs  int64 // summed durations (busy time, counting parallel spans once each)
	SelfNs int64 // summed self time: duration minus the union of the children's intervals
}

// aggregateSpans groups a trace by span name. Self time subtracts the
// UNION of a span's child intervals, clipped to the span: children that
// run in parallel (loc.stripe workers under loc.stream.add) overlap, and
// subtracting their summed durations would make the parent's self time
// negative.
func aggregateSpans(recs []obs.SpanRecord) map[string]*spanAgg {
	children := make(map[uint64][]obs.SpanRecord, len(recs))
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	out := make(map[string]*spanAgg)
	for _, r := range recs {
		a := out[r.Name]
		if a == nil {
			a = &spanAgg{}
			out[r.Name] = a
		}
		a.Count++
		a.DurNs += r.DurNs
		a.SelfNs += r.DurNs - coveredNs(r, children[r.ID])
	}
	return out
}

// coveredNs is how much of parent's interval the union of kids covers.
func coveredNs(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs(), parent.EndNs())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// coveragePct is the share of the named spans' time that their children
// cover — how much of a stage the trace can attribute to a sub-stage.
func coveragePct(aggs map[string]*spanAgg, name string) float64 {
	a := aggs[name]
	if a == nil {
		return 0
	}
	return pct(float64(a.DurNs-a.SelfNs), float64(a.DurNs))
}

func (a *spanAgg) selfMs() float64 {
	if a == nil {
		return 0
	}
	return float64(a.SelfNs) / 1e6
}

func (a *spanAgg) durMs() float64 {
	if a == nil {
		return 0
	}
	return float64(a.DurNs) / 1e6
}

func (a *spanAgg) count() float64 {
	if a == nil {
		return 0
	}
	return float64(a.Count)
}

// counterNames are the obs.Default() counters the hot paths already
// bump; a mission's share is the delta across it.
var counterNames = []string{
	"reader_retry_rounds_total",
	"relay_relocks_total",
	"relay_resweeps_total",
	"relay_loss_events_total",
}

// counterSnap reads counterNames from a registry snapshot.
func counterSnap(s obs.RegistrySnapshot) map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = s.Counters[n]
	}
	return out
}
