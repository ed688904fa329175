package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	caar "caar"
)

// registered returns the metric names BENCHMARK.json lists under key.
func registered(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	var metrics []struct{ Name string }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc[key], &metrics); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.Name
	}
	slices.Sort(names)
	return names
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// small is a fixture the tests can set up in a few hundredths of a second.
var small = fixtureConfig{Users: 300, Ads: 400, Messages: 2000, WarmOps: 300}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(sorted, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestWeightedQuantile(t *testing.T) {
	// One 400-feed post at 2 µs per feed outweighs ten 1-feed posts at 50 µs.
	samples := []weighted{{Value: 2, Weight: 400}}
	for i := 0; i < 10; i++ {
		samples = append(samples, weighted{Value: 50, Weight: 1})
	}
	if got := weightedQuantile(samples, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := weightedQuantile(samples, 0.99); got != 50 {
		t.Errorf("p99 = %v, want 50", got)
	}
}

// busy is how much longer a segment takes when the kernel takes k times as
// long: the calibrated relation the normaliser inverts.
func busy(k float64) float64 { return math.Pow(k, refSlope) }

func TestSegmentNormalisation(t *testing.T) {
	quiet := newSpan(1.0, 0.8, nominalRef, nominalRef)
	slow := newSpan(busy(2), 0.8*busy(2), 2*nominalRef, 2*nominalRef) // the box at half speed
	if !near(quiet.norm(), 1.0) || !near(slow.norm(), quiet.norm()) {
		t.Errorf("reference seconds: quiet %v, slow %v, want 1 and 1", quiet.norm(), slow.norm())
	}
	if !near(slow.cpuNorm(), quiet.cpuNorm()) {
		t.Errorf("reference CPU seconds: quiet %v, slow %v", quiet.cpuNorm(), slow.cpuNorm())
	}
	// The machine slowed down during the segment: the two kernel runs average.
	if got := newSpan(busy(1.5), 0, nominalRef, 2*nominalRef).norm(); !near(got, 1.0) {
		t.Errorf("half-slow segment = %v reference seconds, want 1", got)
	}
}

func TestPooledLatenciesUseTheirSegmentsSpeed(t *testing.T) {
	var p phase
	ms := 1e-3
	p.add(newSpan(1, 0, nominalRef, nominalRef), 2, 0, []weighted{{Value: ms, Weight: 1}, {Value: ms, Weight: 1}})
	p.add(newSpan(busy(2), 0, 2*nominalRef, 2*nominalRef), 2, 0, []weighted{{Value: ms * busy(2), Weight: 1}, {Value: ms * busy(2), Weight: 1}})
	if lo, hi := weightedQuantile(p.Latencies, 0), weightedQuantile(p.Latencies, 1); !near(lo, ms) || !near(hi, ms) {
		t.Errorf("normalised latencies span %v–%v, want all 1e-3", lo, hi)
	}
	if got := weightedQuantile(p.RawLat, 1); !near(got, ms*busy(2)) {
		t.Errorf("raw max = %v, want %v", got, ms*busy(2))
	}
	if raw := float64(p.Ops) / p.rawSeconds(); !near(p.opsPerSecond(), 2) || !near(raw, 4/(1+busy(2))) {
		t.Errorf("ops/s: reference %v raw %v, want 2 and %v", p.opsPerSecond(), raw, 4/(1+busy(2)))
	}
	// A third segment hit by a burst its kernel runs did not see moves the
	// total, not the median.
	p.add(newSpan(9, 0, nominalRef, nominalRef), 2, 0, nil)
	if !near(p.opsPerSecond(), 2) {
		t.Errorf("ops/s with one disturbed segment = %v, want 2", p.opsPerSecond())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Name: "client.op", Start: 0, End: 100, Parent: -1},
		{Name: "transport.roundtrip", Start: 10, End: 90, Parent: 0},
		{Name: "server.handler", Start: 20, End: 70, Parent: 1},
		{Name: "engine.recommend", Start: 30, End: 60, Parent: 2},
		{Name: "engine.postbatch", Start: 95, End: 145, Parent: -1, Async: true},
		{Name: "client.op", Start: 200, End: 250, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]float64{"client": 70e-9, "transport": 30e-9, "server": 20e-9, "engine": 30e-9, "async:engine": 50e-9}
	for layer, w := range want {
		if !near(self[layer], w) {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("layers %v, want %d of them", self, len(want))
	}
	if got := rootTime(spans); !near(got, 150e-9) {
		t.Errorf("root time = %v, want 150e-9", got)
	}
}

func TestTracerNestsAcrossGoroutinesAndGates(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("server.handler"); id != -1 || len(tr.spans) != 0 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.on.Store(true)
	root := tr.beginOp("client.op", small.workloadConfig().Start)
	done := make(chan int32)
	go func() { // the server side of the request runs on another goroutine
		id := tr.begin("server.handler")
		tr.end(id)
		done <- id
	}()
	child := <-done
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[child].Op != 0 || len(tr.stack) != 0 {
		t.Errorf("child %+v: want parent %d, op 0, empty stack (%v)", tr.spans[child], root, tr.stack)
	}
}

func TestOutputChecks(t *testing.T) {
	good := []caar.Recommendation{{AdID: "a", Score: 0.9}, {AdID: "b", Score: 0.9}, {AdID: "c", Score: 0.1}}
	if err := checkRecs(good, 3); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	bad := map[string][]caar.Recommendation{
		"too many":     good,
		"score rises":  {{AdID: "a", Score: 0.1}, {AdID: "b", Score: 0.2}},
		"ad repeated":  {{AdID: "a", Score: 0.2}, {AdID: "a", Score: 0.1}},
		"both at once": {{AdID: "a", Score: 0.1}, {AdID: "a", Score: 0.2}},
	}
	for name, recs := range bad {
		if checkRecs(recs, 2) == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	if err := sameTopK(good, good); err != nil {
		t.Errorf("identical answers differ: %v", err)
	}
	tied := []caar.Recommendation{{AdID: "b", Score: 0.9}, {AdID: "a", Score: 0.9}, {AdID: "d", Score: 0.1}}
	if err := sameTopK(tied, good); err != nil {
		t.Errorf("answers that differ only in ties differ: %v", err)
	}
	if sameTopK([]caar.Recommendation{{AdID: "a", Score: 0.9}, {AdID: "x", Score: 0.9}, {AdID: "c", Score: 0.1}}, good) == nil {
		t.Error("an ad outside the expected answer, not tied with its cut-off, accepted")
	}
	if sameTopK(good[:2], good) == nil || sameTopK([]caar.Recommendation{{AdID: "a", Score: 0.8}, good[1], good[2]}, good) == nil {
		t.Error("a shorter answer or a different score accepted")
	}
}

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	n := newNormaliser()
	fixtures := make([]*fixture, 3)
	for i, seed := range []int64{7, 7, 8} {
		f, _, err := newFixture(small, seed, 0, n, false)
		if err != nil {
			t.Fatal(err)
		}
		fixtures[i] = f
	}
	for _, kind := range workloadNames {
		differs := false
		posts, reads := 0, 0
		for i := 0; i < 600; i++ {
			a, b, c := fixtures[0].opAt(kind, i), fixtures[1].opAt(kind, i), fixtures[2].opAt(kind, i)
			if a != b {
				t.Fatalf("%s: op %d differs between two fixtures of seed 7: %+v, %+v", kind, i, a, b)
			}
			differs = differs || a.User != c.User || a.Text != c.Text
			switch a.Kind {
			case opPost:
				posts++
			case opRecommend:
				reads++
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same 600 ops", kind)
		}
		if kind == mixedHTTP && (posts != 60 || reads != 540) {
			t.Errorf("mixed_http: %d posts and %d reads in 600 ops, want 60 and 540", posts, reads)
		}
	}
	// The stratified stream carries exactly one celebrity post in celebEvery.
	celeb := 0
	for i := 0; i < 10*celebEvery; i++ {
		if int(fixtures[0].postEvent(i).User) < 3 {
			celeb++
		}
	}
	if celeb != 10 {
		t.Errorf("%d celebrity posts in %d, want 10", celeb, 10*celebEvery)
	}
}

// TestWorkloadSmoke runs 200 ops of every workload with all output checks on.
func TestWorkloadSmoke(t *testing.T) {
	for _, kind := range workloadNames {
		t.Run(kind, func(t *testing.T) {
			n := newNormaliser()
			var pair [2]*fixture // replica, live
			for i := range pair {
				f, _, err := newFixture(small, 3, continuousKOf(kind), n, false)
				if err != nil {
					t.Fatal(err)
				}
				pair[i] = f
			}
			if kind != writeHTTP && kind != mixedHTTP {
				pair[0] = nil
			}
			res, err := measureEndToEnd(kind, pair[1], pair[0], n, 60, 200, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 200 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			res.Metrics["setup_s"] = metric{1, "s"} // the caller's, from its set-ups
			if got, want := sortedNames(res.Metrics), registered(t, "end_to_end"); !slices.Equal(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json registers %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced variant of the workload that crosses every
// decorated seam and checks the layer arithmetic on what it recorded.
func TestTracedSmoke(t *testing.T) {
	res, err := runTraced(mixedHTTP, small, 5, 60, 200, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v, failed %d", res.Correct, res.Failed)
	}
	if got, want := sortedNames(res.Metrics), registered(t, "per_layer"); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json registers %v", got, want)
	}
	shares := 0.0
	for _, layer := range spanLayers {
		m, ok := res.Metrics["span."+layer+"_share"]
		if !ok || m.Value <= 0 {
			t.Errorf("span.%s_share = %v (present %v), want > 0 on mixed_http", layer, m.Value, ok)
		}
		shares += m.Value
	}
	if !near(shares, 1) {
		t.Errorf("layer shares sum to %v, want 1", shares)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	if u := res.Metrics["bench.unattributed_share"].Value; u < 0 || u > 0.5 {
		t.Errorf("bench.unattributed_share = %v", u)
	}
}
