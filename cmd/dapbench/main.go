// Command dapbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dapbench -exp fig6 -n 200000 -trials 20
//	dapbench -exp all -csv > results.csv
//	dapbench -list
//
// Every run is deterministic for a fixed -seed, independent of -workers
// and GOMAXPROCS: experiment cells and Monte-Carlo trials own fixed rng
// streams and results are collected in table order. The wall time printed
// on stderr is a courtesy: speed is measured by the repository benchmark
// (benchmark/, workload paper_batch), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id ("+strings.Join(bench.Experiments(), ", ")+") or 'all'")
		n       = flag.Int("n", 20000, "users per collection (paper uses ~1e6)")
		trials  = flag.Int("trials", 3, "Monte-Carlo repeats per cell")
		seed    = flag.Uint64("seed", 1, "base random seed")
		maxIter = flag.Int("maxiter", 200, "EM iteration cap")
		workers = flag.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list experiments and exit")
		specF   = flag.String("spec", "", "task spec file for the 'spec' experiment (sweeps the spec's estimator over the γ grid)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	)
	flag.Parse()
	if *list {
		for _, name := range bench.Experiments() {
			fmt.Println(name)
		}
		return
	}
	// Profiles are flushed through stopProfiles rather than defers: every
	// failure path exits via fatal, and os.Exit would otherwise discard
	// the profile exactly when a failing run is being investigated.
	var profileStops []func()
	stopProfiles := func() {
		for i := len(profileStops) - 1; i >= 0; i-- {
			profileStops[i]()
		}
		profileStops = nil
	}
	fatal := func(args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"dapbench:"}, args...)...)
		stopProfiles()
		os.Exit(1)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		profileStops = append(profileStops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProf != "" {
		profileStops = append(profileStops, func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dapbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dapbench:", err)
			}
		})
	}
	// The harness allocates short-lived per-trial buffers at a high rate;
	// relaxing the GC target trades a bounded amount of heap for wall-clock.
	debug.SetGCPercent(400)
	cfg := bench.Config{N: *n, Trials: *trials, Seed: *seed, EMFMaxIter: *maxIter, Workers: *workers}
	if *specF != "" {
		sp, err := core.LoadSpec(*specF)
		if err != nil {
			fatal(err)
		}
		cfg.Spec = &sp
		if *exp == "all" {
			*exp = "spec"
		}
	}
	names := []string{*exp}
	if *exp == "all" {
		// The spec experiment needs a -spec file, and the red-team matrix
		// has its own runner (cmd/dapredteam) — the paper experiments alone
		// make up "all".
		names = names[:0]
		for _, name := range bench.Experiments() {
			if name != "spec" && name != "matrix" {
				names = append(names, name)
			}
		}
	}
	start := time.Now()
	for _, name := range names {
		tables, err := bench.Run(name, cfg)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "dapbench: %s done in %s (N=%d, trials=%d, seed=%d)\n",
		*exp, time.Since(start).Round(time.Millisecond), *n, *trials, *seed)
	stopProfiles()
}
