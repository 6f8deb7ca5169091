package main

import (
	"testing"

	"rfly/internal/obs"
)

// A hand-built tree whose children overlap the way parallel loc.stripe
// workers do under loc.stream.add.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "runtime.sortie", StartNs: 0, DurNs: 100},
		// Two stripes in parallel over [10,50) and [30,70): union 60.
		{ID: 2, Parent: 1, Name: "loc.stream.add", StartNs: 10, DurNs: 70},
		{ID: 3, Parent: 2, Name: "loc.stripe", StartNs: 10, DurNs: 40},
		{ID: 4, Parent: 2, Name: "loc.stripe", StartNs: 30, DurNs: 40},
		// A child sticking out past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "sim.read", StartNs: 90, DurNs: 20},
	}
	ag := aggregateSpans(recs)
	if got := ag["loc.stream.add"].SelfNs; got != 10 {
		t.Errorf("loc.stream.add self = %d ns, want 10 (70 minus the 60 ns union); summing children gives -10", got)
	}
	if got := ag["loc.stripe"]; got.Count != 2 || got.DurNs != 80 || got.SelfNs != 80 {
		t.Errorf("loc.stripe = %+v, want 2 spans, 80 ns busy, 80 ns self", *got)
	}
	// Children of the sortie cover [10,80) and [90,100): 80 of 100 ns.
	if got := ag["runtime.sortie"].SelfNs; got != 20 {
		t.Errorf("runtime.sortie self = %d ns, want 20", got)
	}
	if got := coveragePct(ag, "runtime.sortie"); got != 80 {
		t.Errorf("sortie coverage = %v%%, want 80", got)
	}
}

func TestSelfTimeOfNestedAndDisjointChildren(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "p", StartNs: 0, DurNs: 100},
		{ID: 2, Parent: 1, Name: "c", StartNs: 0, DurNs: 10},
		{ID: 3, Parent: 1, Name: "c", StartNs: 20, DurNs: 10},
		{ID: 4, Parent: 1, Name: "c", StartNs: 22, DurNs: 3},  // inside the previous one
		{ID: 5, Parent: 1, Name: "c", StartNs: 30, DurNs: 10}, // touches the previous one
	}
	if got := aggregateSpans(recs)["p"].SelfNs; got != 70 {
		t.Errorf("p self = %d ns, want 70", got)
	}
	if got := coveragePct(aggregateSpans(nil), "p"); got != 0 {
		t.Errorf("coverage of a missing span = %v", got)
	}
}
