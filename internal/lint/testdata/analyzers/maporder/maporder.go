// Package fixture exercises the maporder analyzer: a float that accumulates
// across the iterations of a range over a map is reported, unless the range
// key indexes it or it is declared inside the loop.
package fixture

type vector map[uint32]float64

type stats struct{ total float64 }

func dot(v, w vector) float64 {
	var sum float64
	for id, x := range v {
		sum += x * w[id] // want `float sum accumulates across iterations of a range over a map`
	}
	return sum
}

func norm(v vector) float64 {
	sum := 0.0
	for _, x := range v {
		sum = sum + x*x // want `float sum accumulates`
	}
	return sum
}

// addScaled is a per-key sum: each key is visited once, so it is exact.
func addScaled(dst, v vector, s float64) {
	for id, x := range v {
		dst[id] += x * s
	}
}

// deltas sums into slots the range key does not name.
func deltas(v vector, lists map[uint32][]int, w []float64, sum []float64) {
	for id, x := range v {
		for _, slot := range lists[id] {
			sum[slot] += x * w[slot] // want `float sum\[slot\] accumulates`
		}
	}
}

func (s *stats) observe(m map[string]float64) {
	for _, x := range m {
		s.total -= x // want `float s\.total accumulates`
	}
}

func nested(m map[string]vector, out vector) {
	for _, v := range m {
		for id, x := range v {
			out[id] *= x // want `float out\[id\] accumulates`
		}
	}
}

// perIteration's accumulator starts afresh for every key.
func perIteration(m map[string][]float64, out map[string]float64) {
	for k, xs := range m {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		out[k] = sum
	}
}

// counts are integers, and a slice has one order.
func counts(m map[string]int, xs []float64) (int, float64) {
	n, sum := 0, 0.0
	for _, c := range m {
		n += c
	}
	for _, x := range xs {
		sum += x
	}
	return n, sum
}
