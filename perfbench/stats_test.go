package main

import (
	"math/rand/v2"
	"testing"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 57, 100, 639} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1) // 1..n
		}
		rand.New(rand.NewPCG(1, uint64(n))).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		tl, ok := tailOf(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value %v, want %d", n, beyond, tl.Value, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); tl.Pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, tl.Pct, want)
		}
		if tl.N != n {
			t.Errorf("n=%d: printed sample count %d", n, tl.N)
		}
	}
	if tl, ok := tailOf(make([]float64, tailBeyond)); ok {
		t.Errorf("%d samples gave a tail %+v; no percentile has ten beyond it", tailBeyond, tl)
	}
}

func TestTailPercentileAtHundredSamples(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	tl, _ := tailOf(xs)
	if tl.Pct != 90 || tl.Value != 89 || tl.N != 100 {
		t.Fatalf("got %+v, want p90 = 89 of 100 samples", tl)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median reordered its input")
	}
}

func TestSetTimingMediansOverRounds(t *testing.T) {
	// 300 samples make three rounds of 100: 0..99, then 1000.., then 0..99.
	var xs []float64
	for _, base := range []float64{0, 1000, 0} {
		for i := 0; i < roundSamples; i++ {
			xs = append(xs, base+float64(i))
		}
	}
	r := newReport()
	r.setTiming("latency", xs)
	if got := r.e2e["latency_p50_ms"]; got != 49.5 {
		t.Errorf("p50 = %v, want the median round's 49.5", got)
	}
	if got := r.e2e["latency_tail_ms"]; got != 89 {
		t.Errorf("tail = %v, want the median round's p90, 89", got)
	}
	if len(r.checks) != 0 {
		t.Errorf("unexpected checks %v", r.checks)
	}
	r = newReport()
	r.setTiming("mission", xs[:tailBeyond])
	if len(r.checks) != 1 {
		t.Errorf("%d samples must fail the run, got checks %v", tailBeyond, r.checks)
	}
}
