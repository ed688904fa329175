// Command bench is the repository's canonical benchmark: one fixture, four
// closed-loop workloads, seven end-to-end metrics reported in reference
// seconds (see refkernel.go), and a traced run that attributes the time to
// layers with decorators at the package seams. README.md in this directory
// defines every metric and workload and records the calibration.
//
//	go run ./bench -workload read_http -seed 7 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. Everything before it is for people. A failed output check
// or a failed operation makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets up from scratch; setup_s is the
// median. Two, because a set-up costs ~7 wall seconds and the driver allows a
// run ~35; the first one's engine doubles as the replay check's replica.
const setupRuns = 2

// hardDeadline ends a run that hangs, well inside the driver's 180 s.
const hardDeadline = 150 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "one of fanout_stream, read_http, write_http, mixed_http")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "seconds to measure for")
	traced := flag.Int("trace", 0, "1 runs the traced, serial variant and reports the per-layer metrics")
	spansOut := flag.String("spans", "", "with -trace 1: keep the span file at this path")
	flag.Parse()

	if !slices.Contains(workloadNames, *workloadName) {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %v\n", workloadNames)
		os.Exit(2)
	}
	// A fresh scratch directory inside the working directory holds the
	// journals and the span file and is removed on every exit path.
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	watchdog := time.AfterFunc(hardDeadline, func() {
		os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", *workloadName, hardDeadline)
		os.Exit(1)
	})
	// A run that is interrupted or terminated leaves no scratch behind either.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "bench: %s stopped by %v\n", *workloadName, sig)
		os.Exit(1)
	}()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var res *result
	if *traced == 1 {
		res, err = runTraced(*workloadName, canonical, *seed, *seconds, 0, dir, *spansOut)
	} else {
		res, err = runEndToEnd(*workloadName, canonical, *seed, *seconds, dir)
	}
	watchdog.Stop()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workloadName, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res) // fails on a NaN or infinite metric
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workloadName, err)
		os.Exit(1)
	}
	printMetrics(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d  succeeded %d  failed %d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// continuousKOf is the engine's ContinuousK for a workload: on for the stream
// processor, off for the server, as cmd/adserver runs it.
func continuousKOf(kind string) int {
	if kind == fanoutStream {
		return continuousK
	}
	return 0
}

// runEndToEnd sets up setupRuns times, measures one untraced phase on the
// last fixture and reports the end-to-end metrics.
func runEndToEnd(kind string, fc fixtureConfig, seed int64, seconds float64, dir string) (*result, error) {
	n := newNormaliser()
	// The fixture measured on is set up last and the replay check's replica
	// just before it; the others are dropped at once, so no set-up runs
	// with more than one other fixture on the heap.
	var live, replica *fixture
	var setups, rawSetups []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		f, rep, err := newFixture(fc, seed, continuousKOf(kind), n, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.total())
		rawSetups = append(rawSetups, rep.Raw)
		switch {
		case i == setupRuns-1:
			live = f
		case i == setupRuns-2 && (kind == writeHTTP || kind == mixedHTTP):
			replica = f
		}
	}
	fmt.Printf("set-up ×%d: reference %.3f s, raw %.3f s (raw median %.3f s)\n", setupRuns, setups, rawSetups, median(rawSetups))
	res, err := measureEndToEnd(kind, live, replica, n, seconds, 0, dir)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}

// measureEndToEnd runs one untraced phase of a workload on live and computes
// every end-to-end metric but setup_s, all times in reference seconds. The
// write workloads first replay a short journal into replica, a fixture set up
// exactly like live. maxOps > 0 bounds the phase by operations instead of
// time (tests).
func measureEndToEnd(kind string, live, replica *fixture, n *normaliser, seconds float64, maxOps int, dir string) (*result, error) {
	r, err := newRunner(kind, live, dir, 2, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if replica != nil {
		ops := verifyOps
		if maxOps > 0 {
			ops = min(ops, maxOps)
		}
		if err := r.verifyReplay(replica, ops); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := r.run(n, seconds, maxOps, 1)[0]
	runtime.ReadMemStats(&after)
	heap := liveHeap()
	if err := r.close(); err != nil {
		return nil, err
	}
	if err := checkDelivered(r, live); err != nil {
		r.fail(1, "%v", err)
		p.Failed++
	}

	speeds := make([]float64, len(p.Segments))
	for i, s := range p.Segments {
		speeds[i] = s.Speed
	}
	fmt.Printf("%d segments, %.2f s raw, %.2f s reference, speed index median %.3f min %.3f, kernel/segment correlation %.2f, %d latency samples\n",
		len(p.Segments), p.rawSeconds(), p.normSeconds(), median(speeds), slices.Min(speeds), p.refCorrelation(), len(p.Latencies))
	fmt.Printf("raw: %.1f ops/s, p50 %.1f us, p99 %.1f us; %.2f kB allocated per op\n",
		float64(p.Ops)/p.rawSeconds(), weightedQuantile(p.RawLat, 0.5)*1e6, weightedQuantile(p.RawLat, 0.99)*1e6,
		float64(after.TotalAlloc-before.TotalAlloc)/float64(p.Ops)/1024)
	if r.reason != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", kind, r.reason)
	}
	ops := float64(p.Ops)
	return &result{
		Correct:   p.Failed == 0,
		Attempted: p.Ops,
		Failed:    p.Failed,
		Metrics: map[string]metric{
			"ops_per_s":     {p.opsPerSecond(), "1/s"},
			"op_p50_us":     {weightedQuantile(p.Latencies, 0.50) * 1e6, "us"},
			"op_p99_us":     {weightedQuantile(p.Latencies, 0.99) * 1e6, "us"},
			"cpu_us_per_op": {p.cpuPerOp() * 1e6, "us"},
			"allocs_per_op": {float64(after.Mallocs-before.Mallocs) / ops, "count"},
			"heap_live_mb":  {heap / (1 << 20), "MB"},
		},
	}, nil
}

// checkDelivered checks, once the stack is closed and drained, that the
// engine applied exactly the writes that were acknowledged.
func checkDelivered(r *runner, f *fixture) error {
	if r.env == nil {
		return nil
	}
	st := f.eng.Stats()
	if got := st.PostsDelivered + st.CheckIns - r.env.base; got != uint64(r.env.accepted) {
		return fmt.Errorf("engine applied %d writes, %d were acknowledged", got, r.env.accepted)
	}
	return nil
}
