package main

import "sort"

// tailBeyond is how many samples must lie above a reported tail
// percentile: fewer than that and the percentile is one or two samples'
// luck, not a property of the system.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a tail latency: the highest nearest-rank percentile with at
// least tailBeyond samples strictly above its rank, the percentile
// itself, and the sample count it was read from.
type tail struct {
	Value float64
	Pct   float64
	N     int
}

// tailOf applies the tail rule to xs. With n samples the reported value
// sits at rank n-tailBeyond (1-based), i.e. percentile 100*(n-10)/n; ok
// is false when n <= tailBeyond, where no percentile has enough samples
// beyond it.
func tailOf(xs []float64) (tail, bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{N: n}, false
	}
	s := sorted(xs)
	return tail{
		Value: s[n-tailBeyond-1],
		Pct:   100 * float64(n-tailBeyond) / float64(n),
		N:     n,
	}, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pct is 100*num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// roundSamples is the fewest samples a round of a timing series holds,
// so each round's tail is at least its p90.
const roundSamples = 100

// roundsFor is how many rounds n samples are summarised over.
func roundsFor(n int) int { return max(1, n/roundSamples) }
