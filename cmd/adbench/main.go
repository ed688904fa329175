// Command adbench runs the reproduction experiments: one per table/figure of
// the evaluation grid in DESIGN.md §5.
//
// Usage:
//
//	adbench -exp F1            # one experiment at default scale
//	adbench -exp all -scale 1  # the full grid at full scale
//	adbench -list              # list experiment IDs and titles
//
// Speed numbers come from the canonical benchmark (bench/run.sh), not from
// this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"caar/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID (T1, F1, …, or 'all')")
	scale := flag.Float64("scale", 0.1, "workload scale factor (1.0 = full evaluation size)")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			e, _ := experiments.Lookup(id)
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	r := &experiments.Runner{Out: os.Stdout, Scale: *scale}
	if err := r.Run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "adbench:", err)
		os.Exit(1)
	}
}
