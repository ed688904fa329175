package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks, NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// weighted is one sample standing for Weight equal observations: an op's
// latency in seconds and the number of operations it stands for (a post's
// fan-out in fanout_stream, else 1).
type weighted struct {
	Value  float64
	Weight float64
}

// weightedQuantile returns the smallest value whose cumulative weight reaches
// share q of the total. It sorts samples in place.
func weightedQuantile(samples []weighted, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.SortFunc(samples, func(a, b weighted) int {
		switch {
		case a.Value < b.Value:
			return -1
		case a.Value > b.Value:
			return 1
		}
		return 0
	})
	total := 0.0
	for _, s := range samples {
		total += s.Weight
	}
	cum := 0.0
	for _, s := range samples {
		cum += s.Weight
		if cum >= q*total {
			return s.Value
		}
	}
	return samples[len(samples)-1].Value
}

// pearson is the correlation coefficient of two equally long series, 0 when
// either is constant or shorter than 3.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if len(x) < 3 || len(x) != len(y) {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
