// Command dapbench is the offline experiment CLI: it regenerates the
// paper's tables and figures, sweeps or runs a task spec, and renders the
// red-team robustness matrix.
//
// Usage:
//
//	dapbench -exp fig6 -n 200000 -trials 20
//	dapbench -exp all -csv > results.csv
//	dapbench -exp spec -spec specs/variance.json
//	dapbench -exp one -spec specs/attack-bba.json -dataset Retirement -gamma 0.1
//	dapbench -exp one -spec specs/frequency.json -attack '{"name":"targeted","cats":[10,11,12]}'
//	dapbench -exp matrix -md MATRIX.md -json MATRIX.json -attacks gba,opportunistic
//	dapbench -list
//
// The task spec is -spec file.json with the protocol flags (-task, -eps,
// -scheme, -attack, …) as overrides. -exp spec sweeps it over the paper's
// γ grid; -exp one runs one round of it at -gamma and prints the full
// collector diagnostics next to the Ostrich and Trimming comparators.
// -exp matrix runs every attack of the battery, plus the -attacks extras,
// against every scheme at -gamma; with -exp matrix, -list lists the
// battery. -emf-maxiter caps EM iterations; 0 selects 200 for the paper
// experiments, the sweep and the matrix, and the engine's default for
// -exp one.
//
// Every run is deterministic for a fixed -seed, independent of -workers
// and GOMAXPROCS: experiment cells and Monte-Carlo trials own fixed rng
// streams and results are collected in table order. The wall time printed
// on stderr is a courtesy: speed is measured by the repository benchmark
// (benchmark/, workload paper_batch), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/specflag"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dapbench:", err)
		os.Exit(1)
	}
}

// experiments lists every -exp id: the harness's registry, "matrix" and
// "one".
func experiments() []string {
	return append(bench.Experiments(), "matrix", "one")
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dapbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment id ("+strings.Join(experiments(), ", ")+") or 'all'")
		n       = fs.Int("n", 20000, "users per collection (paper uses ~1e6)")
		trials  = fs.Int("trials", 3, "Monte-Carlo repeats per cell")
		seed    = fs.Uint64("seed", 1, "base random seed")
		workers = fs.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = fs.Bool("list", false, "list experiments (with -exp matrix: the attack battery) and exit")
		gamma   = fs.Float64("gamma", 0.25, "Byzantine proportion γ (-exp one, -exp matrix)")
		dsName  = fs.String("dataset", "", "dataset for -exp one: Beta(2,5), Beta(5,2), Taxi, Retirement (default Taxi); COVID19 for task frequency")
		attacks = fs.String("attacks", "", "extra numeric registry attacks appended to the matrix battery (comma-separated names, or @file.json / inline JSON per entry)")
		jsonOut = fs.String("json", "", "write the matrix's machine-readable record to this path")
		mdOut   = fs.String("md", "", "write the matrix's markdown report to this path (default: stdout)")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf = fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
	)
	sf := specflag.New(fs, core.NewSpec(core.MeanTask(), core.WithScheme(core.SchemeCEMFStar)))
	_ = fs.Parse(args)
	if *list {
		if *exp == "matrix" {
			for _, na := range bench.MatrixAttacks() {
				fmt.Fprintf(stdout, "%-22s %s\n", na.Label, na.Spec.Name)
			}
			for _, na := range bench.MatrixFreqAttacks() {
				fmt.Fprintf(stdout, "%-22s %s (frequency)\n", na.Label, na.Spec.Name)
			}
		} else {
			fmt.Fprintln(stdout, strings.Join(experiments(), "\n"))
		}
		return nil
	}
	sp, err := sf.Resolve()
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "dapbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "dapbench:", err)
			}
		}()
	}
	// The harness allocates short-lived per-trial buffers at a high rate;
	// relaxing the GC target trades a bounded amount of heap for wall-clock.
	debug.SetGCPercent(400)
	cfg := bench.Config{N: *n, Trials: *trials, Seed: *seed, EMFMaxIter: sp.EMFMaxIter, Workers: *workers, Spec: &sp}
	start := time.Now()
	switch *exp {
	case "one":
		err = runOne(stdout, stderr, sp, *dsName, *n, *gamma, *seed)
	case "matrix":
		err = runMatrix(stdout, stderr, cfg, *gamma, *attacks, *jsonOut, *mdOut)
	default:
		err = runTables(stdout, cfg, *exp, sf.Path() != "", *csv)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dapbench: %s done in %s (N=%d, trials=%d, seed=%d)\n",
		*exp, time.Since(start).Round(time.Millisecond), *n, *trials, *seed)
	return nil
}

// runTables prints the tables of one harness experiment, or of every
// paper experiment for "all" — the spec sweep when a -spec file is given.
func runTables(w io.Writer, cfg bench.Config, exp string, specFile, csv bool) error {
	names := []string{exp}
	if exp == "all" && specFile {
		names = []string{"spec"}
	} else if exp == "all" {
		// The spec sweep is not a paper experiment; "all" is the paper's
		// evaluation alone.
		names = names[:0]
		for _, name := range bench.Experiments() {
			if name != "spec" {
				names = append(names, name)
			}
		}
	}
	for _, name := range names {
		tables, err := bench.Run(name, cfg)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if csv {
				t.CSV(w)
			} else {
				t.Fprint(w)
			}
		}
	}
	return nil
}

// runMatrix runs the red-team matrix at gamma and writes its markdown
// report to mdOut (stdout when empty) and its JSON record to jsonOut.
// Each (task, attack) cell owns a fixed rng stream and rows are collected
// in battery order; the scheme rows of a cell share one collection per
// trial, so the matrix is a paired comparison on identical data.
func runMatrix(stdout, stderr io.Writer, cfg bench.Config, gamma float64, attacks, jsonOut, mdOut string) error {
	extra, err := extraAttacks(attacks)
	if err != nil {
		return err
	}
	rep, err := bench.RunMatrix(cfg, gamma, extra)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "dapbench: matrix record written to %s\n", jsonOut)
	}
	if mdOut == "" {
		return rep.Markdown(stdout)
	}
	f, err := os.Create(mdOut)
	if err != nil {
		return err
	}
	if err := rep.Markdown(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dapbench: markdown report written to %s\n", mdOut)
	return nil
}

// extraAttacks parses the -attacks list into matrix rows. A bare registry
// name titles its row; a JSON entry, inline or @file, is titled by the
// adversary it builds — "BBA(left, [0.5,1]·C, Beta(1,6))" — not by its
// text.
func extraAttacks(list string) ([]bench.NamedAttack, error) {
	var extra []bench.NamedAttack
	for _, s := range specflag.SplitAttacks(list) {
		sp, err := specflag.ParseAttack(s)
		if err != nil {
			return nil, err
		}
		label := s
		if sp.Name != s {
			adv, err := attack.New(*sp)
			if err != nil {
				return nil, err
			}
			label = adv.Name()
		}
		extra = append(extra, bench.NamedAttack{Label: label, Spec: *sp})
	}
	return extra, nil
}
