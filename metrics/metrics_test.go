package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEvaluateSets(t *testing.T) {
	r := EvaluateSets([]string{"a", "b", "c"}, []string{"b", "c", "d"})
	if r.TruePositives != 2 || r.FalsePositives != 1 || r.FalseNegatives != 1 {
		t.Fatalf("Retrieval = %+v", r)
	}
	if math.Abs(r.Precision()-2.0/3) > 1e-12 {
		t.Fatalf("Precision = %v", r.Precision())
	}
	if math.Abs(r.Recall()-2.0/3) > 1e-12 {
		t.Fatalf("Recall = %v", r.Recall())
	}
	if math.Abs(r.FScore()-2.0/3) > 1e-12 {
		t.Fatalf("FScore = %v", r.FScore())
	}
}

func TestEvaluateSetsEdgeCases(t *testing.T) {
	// Both empty: perfect by convention.
	r := EvaluateSets[string](nil, nil)
	if r.Precision() != 1 || r.Recall() != 1 {
		t.Fatalf("empty/empty: %+v p=%v r=%v", r, r.Precision(), r.Recall())
	}
	// Nothing retrieved, something relevant.
	r = EvaluateSets(nil, []string{"a"})
	if r.Precision() != 0 || r.Recall() != 0 || r.FScore() != 0 {
		t.Fatalf("miss-all: p=%v r=%v f=%v", r.Precision(), r.Recall(), r.FScore())
	}
	// Retrieved junk, nothing relevant.
	r = EvaluateSets([]string{"a"}, nil)
	if r.Precision() != 0 || r.Recall() != 1 {
		t.Fatalf("junk: p=%v r=%v", r.Precision(), r.Recall())
	}
	// Duplicates in retrieved count once.
	r = EvaluateSets([]string{"a", "a", "b"}, []string{"a"})
	if r.TruePositives != 1 || r.FalsePositives != 1 {
		t.Fatalf("dup handling: %+v", r)
	}
}

func TestRetrievalMerge(t *testing.T) {
	a := Retrieval{1, 2, 3}
	a.Merge(Retrieval{10, 20, 30})
	if a != (Retrieval{11, 22, 33}) {
		t.Fatalf("Merge = %+v", a)
	}
}

func TestFScoreBoundsProperty(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		r := Retrieval{int(tp), int(fp), int(fn)}
		f1 := r.FScore()
		if f1 < 0 || f1 > 1 {
			return false
		}
		// F1 is between min and max of precision and recall.
		p, rec := r.Precision(), r.Recall()
		lo, hi := math.Min(p, rec), math.Max(p, rec)
		return f1 >= lo-1e-12 && f1 <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplesBasics(t *testing.T) {
	var s Samples
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("zero Samples not zero")
	}
	s.Observe(time.Millisecond)
	s.Observe(3 * time.Millisecond)
	s.Observe(-time.Second) // clamps to 0
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Max() != 3*time.Millisecond {
		t.Fatalf("Max = %v", s.Max())
	}
	if want := 4 * time.Millisecond / 3; s.Mean() != want {
		t.Fatalf("Mean = %v, want %v", s.Mean(), want)
	}
}

func TestSamplesQuantileExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var s Samples
	var want []time.Duration
	for i := 0; i < 20000; i++ {
		// log-uniform between 1µs and 100ms
		d := time.Duration(float64(time.Microsecond) * math.Pow(10, rng.Float64()*5))
		s.Observe(d)
		want = append(want, d)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, exact := s.Quantile(q), want[int(q*float64(len(want)-1))]; got != exact {
			t.Fatalf("q=%v: %v, want the sample %v", q, got, exact)
		}
	}
	if s.Quantile(-1) != want[0] || s.Quantile(2) != want[len(want)-1] {
		t.Fatal("quantile clamping broken")
	}
	// An Observe after a Quantile must re-sort.
	s.Observe(0)
	if s.Quantile(0) != 0 {
		t.Fatalf("min after late Observe = %v, want 0", s.Quantile(0))
	}
}

func TestSamplesMerge(t *testing.T) {
	var a, b Samples
	a.Observe(10 * time.Millisecond)
	a.Quantile(0.5) // a is sorted; the merge must invalidate that
	b.Observe(time.Millisecond)
	a.Merge(&b)
	if a.Count() != 2 || a.Quantile(0) != time.Millisecond || a.Max() != 10*time.Millisecond {
		t.Fatalf("after merge: n=%d min=%v max=%v", a.Count(), a.Quantile(0), a.Max())
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Events: 1000, Elapsed: 2 * time.Second}
	if tp.PerSecond() != 500 {
		t.Fatalf("PerSecond = %v", tp.PerSecond())
	}
	if (Throughput{Events: 5}).PerSecond() != 0 {
		t.Fatal("zero elapsed should be 0")
	}
	if !strings.Contains(tp.String(), "500.0 ev/s") {
		t.Fatalf("String = %q", tp.String())
	}
}

func TestSeriesTable(t *testing.T) {
	a := Series{Name: "CAP"}
	a.Add(1, 100)
	a.Add(2, 200)
	b := Series{Name: "RS"}
	b.Add(1, 10)
	// b has no point at x=2: rendered as "-".
	out := Table("ads", a, b)
	if !strings.Contains(out, "CAP") || !strings.Contains(out, "RS") {
		t.Fatalf("missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table rows = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "-") {
		t.Fatalf("missing gap marker:\n%s", out)
	}
}
