// Package metrics provides the evaluation instrumentation of the
// reproduction: set-retrieval quality (precision / recall / F-score),
// exact latency quantiles over raw samples, and throughput meters.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Retrieval holds the confusion counts of one set-retrieval evaluation.
type Retrieval struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// EvaluateSets compares a retrieved set against a relevant (ground-truth)
// set. Both are identified by comparable keys.
func EvaluateSets[K comparable](retrieved, relevant []K) Retrieval {
	rel := make(map[K]bool, len(relevant))
	for _, k := range relevant {
		rel[k] = true
	}
	got := make(map[K]bool, len(retrieved))
	var r Retrieval
	for _, k := range retrieved {
		if got[k] {
			continue // duplicates count once
		}
		got[k] = true
		if rel[k] {
			r.TruePositives++
		} else {
			r.FalsePositives++
		}
	}
	for k := range rel {
		if !got[k] {
			r.FalseNegatives++
		}
	}
	return r
}

// Precision returns TP/(TP+FP); by convention 0 when nothing was retrieved
// and something was relevant, and 1 when both sides are empty.
func (r Retrieval) Precision() float64 {
	den := r.TruePositives + r.FalsePositives
	if den == 0 {
		if r.FalseNegatives == 0 {
			return 1
		}
		return 0
	}
	return float64(r.TruePositives) / float64(den)
}

// Recall returns TP/(TP+FN); by convention 1 when nothing was relevant.
func (r Retrieval) Recall() float64 {
	den := r.TruePositives + r.FalseNegatives
	if den == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(den)
}

// FScore returns the harmonic mean of precision and recall (F1), 0 when
// both are 0.
func (r Retrieval) FScore() float64 {
	p, rec := r.Precision(), r.Recall()
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// Merge accumulates another evaluation's counts (micro-averaging).
func (r *Retrieval) Merge(o Retrieval) {
	r.TruePositives += o.TruePositives
	r.FalsePositives += o.FalsePositives
	r.FalseNegatives += o.FalseNegatives
}

// Samples is a raw latency sample set: every observation is kept, so a
// quantile is a measured value, not a bucket edge (obs.Histogram is the
// bucketed one, for the serving path where memory must stay fixed). The
// zero value is ready to use. Not safe for concurrent use.
type Samples struct {
	d      []time.Duration
	sorted bool
}

// Observe records one latency sample. Negative durations are clamped to 0.
func (s *Samples) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.d = append(s.d, d)
	s.sorted = false
}

// Count returns the number of samples.
func (s *Samples) Count() uint64 { return uint64(len(s.d)) }

// Mean returns the mean latency (0 with no samples).
func (s *Samples) Mean() time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.d {
		sum += d
	}
	return sum / time.Duration(len(s.d))
}

// Max returns the maximum observed latency (0 with no samples).
func (s *Samples) Max() time.Duration { return s.Quantile(1) }

// Quantile returns the sample at quantile q ∈ [0, 1] (clamped), sorting the
// set on first use after an Observe or Merge. Returns 0 with no samples.
func (s *Samples) Quantile(q float64) time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.d)
		s.sorted = true
	}
	q = math.Min(math.Max(q, 0), 1)
	return s.d[int(q*float64(len(s.d)-1))]
}

// Merge appends another set's samples.
func (s *Samples) Merge(o *Samples) {
	s.d = append(s.d, o.d...)
	s.sorted = false
}

// Throughput measures events per second over a measured interval.
type Throughput struct {
	Events  uint64
	Elapsed time.Duration
}

// PerSecond returns events per second (0 for a zero interval).
func (t Throughput) PerSecond() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Events) / t.Elapsed.Seconds()
}

// String renders like "12345.6 ev/s (n=100000 in 8.1s)".
func (t Throughput) String() string {
	return fmt.Sprintf("%.1f ev/s (n=%d in %v)", t.PerSecond(), t.Events, t.Elapsed.Round(time.Millisecond))
}

// Series is a labeled (x, y) sequence used by the experiment harness to
// print figure data as aligned text tables.
type Series struct {
	Name   string
	Points []Point
}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Table renders multiple series sharing the same X values as an aligned
// text table with one row per X and one column per series — the harness's
// "figure" output format.
func Table(xLabel string, series ...Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	out := fmt.Sprintf("%-14s", xLabel)
	for _, s := range series {
		out += fmt.Sprintf("%18s", s.Name)
	}
	out += "\n"
	for _, x := range sorted {
		out += fmt.Sprintf("%-14.4g", x)
		for _, s := range series {
			y, ok := lookupX(s, x)
			if ok {
				out += fmt.Sprintf("%18.4f", y)
			} else {
				out += fmt.Sprintf("%18s", "-")
			}
		}
		out += "\n"
	}
	return out
}

func lookupX(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
