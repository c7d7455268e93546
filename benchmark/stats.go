package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count) without disturbing xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it — a p99 of 200 samples is two samples' worth
// of evidence and is not reported. Below 40 samples it degrades to the
// median.
func tailPercentile(samples int) float64 {
	for _, p := range tailPercentiles {
		if float64(samples)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// sliceRates cuts the ops into `slices` runs of equal op count (the
// remainder joins the last) and returns each run's answers per second of
// op time. Taking the median over slices makes a transient stall cost one
// slice instead of dragging the whole run's mean.
func sliceRates(opSeconds []float64, answers []int, slices int) []float64 {
	if slices > len(opSeconds) {
		slices = len(opSeconds)
	}
	if slices == 0 {
		return nil
	}
	per := len(opSeconds) / slices
	rates := make([]float64, 0, slices)
	for s := 0; s < slices; s++ {
		lo, hi := s*per, (s+1)*per
		if s == slices-1 {
			hi = len(opSeconds)
		}
		var secs float64
		var n int
		for i := lo; i < hi; i++ {
			secs += opSeconds[i]
			n += answers[i]
		}
		if secs > 0 {
			rates = append(rates, float64(n)/secs)
		}
	}
	return rates
}

// iqrFrac is the interquartile range of xs as a fraction of its median —
// the spread figure the acceptance rule uses.
func iqrFrac(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (percentile(s, 75) - percentile(s, 25)) / m
}
