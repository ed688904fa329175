// Command adbench runs the reproduction experiments: one per table/figure of
// the evaluation grid in DESIGN.md §5.
//
// Usage:
//
//	adbench -exp F1            # one experiment at default scale
//	adbench -exp all -scale 1  # the full grid at full scale
//	adbench -list              # list experiment IDs and titles
//	adbench -hot-smoke         # end-to-end /v1/hot smoke: planted hot key must surface
//	adbench -ingest-smoke      # end-to-end ingest backpressure smoke: burst, 429s, drain
//	adbench -capture-smoke     # end-to-end incident smoke: SLO trip must capture an attributable profile
//
// Speed numbers come from the canonical benchmark (bench/run.sh), not from
// this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"caar/internal/experiments"
	"caar/internal/faultinject"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (T1, F1, …, or 'all')")
	scale := flag.Float64("scale", 0.1, "workload scale factor (1.0 = full evaluation size)")
	list := flag.Bool("list", false, "list available experiments and exit")
	captureSmoke := flag.Bool("capture-smoke", false, "inject a serving-path latency fault, verify the SLO watchdog trips and captures an attributable CPU profile, and exit")
	captureSmokeOut := flag.String("capture-smoke-out", "BENCH_CAPTURE_SMOKE.json", "output file for -capture-smoke results")
	captureSmokeDir := flag.String("capture-smoke-dir", "", "keep the -capture-smoke bundle under this directory (empty = throwaway temp dir)")
	hotSmoke := flag.Bool("hot-smoke", false, "serve traffic with a planted hot key, verify /v1/hot names it, and exit")
	ingestSmoke := flag.Bool("ingest-smoke", false, "burst a tiny ingest ring behind a slow journal, verify 429+Retry-After shedding, drain, check invariants, and exit")
	flag.Parse()

	// Lock watchdog: a no-op outside `-tags caarlockwatch` builds; the
	// race-matrix smokes build with the tag and set CAAR_LOCKWATCH so a
	// mutex held past the bound dumps all goroutine stacks and panics.
	if spec, err := faultinject.ArmLockWatchFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		os.Exit(1)
	} else if spec != "" {
		fmt.Fprintf(os.Stderr, "adbench: faultinject: lock watchdog armed: bound %s\n", spec)
	}

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	if *hotSmoke {
		if err := runHotSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	if *ingestSmoke {
		if err := runIngestSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	if *captureSmoke {
		if err := runCaptureSmoke(*captureSmokeOut, *captureSmokeDir); err != nil {
			fmt.Fprintln(os.Stderr, "adbench:", err)
			os.Exit(1)
		}
		return
	}

	r := &experiments.Runner{Out: os.Stdout, Scale: *scale}
	if err := r.Run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		os.Exit(1)
	}
}
