// Command sembench prints the tables and figures the repository
// reproduces (README "What is reproduced"): one experiment of the
// internal/experiments registry per flag value, or all of them.
//
// Usage:
//
//	sembench -exp e1          # Figure A + Table A
//	sembench -exp all         # everything (about 7 s)
//	sembench -exp e2 -quick   # reduced sizes for a fast look
//
// The output is deterministic and pinned: -exp all prints
// internal/experiments/testdata/all.golden, -exp all -quick prints
// quick.golden.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/mat"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: "+strings.Join(experiments.IDs(), ", ")+", or all")
		quick   = flag.Bool("quick", false, "reduced sizes for a fast run")
		workers = flag.Int("workers", 0, "parallel workers for pretraining and trial fan-out (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *workers > 0 {
		mat.SetParallelism(*workers)
	}
	if err := run(*exp, *quick); err != nil {
		log.SetFlags(0)
		log.Fatalf("sembench: %v", err)
	}
}

// run executes the selected experiments and prints their tables.
func run(exp string, quick bool) error {
	fmt.Fprintln(os.Stderr, "sembench: building environment (pretraining general models)...")
	t0 := time.Now()
	env := experiments.Environment()
	fmt.Fprintf(os.Stderr, "sembench: environment ready in %v\n\n", time.Since(t0).Round(time.Millisecond))
	return experiments.Render(os.Stdout, env, exp, quick)
}
