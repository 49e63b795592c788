// Command dapredteam runs the red-team robustness matrix: every attack
// variant in the standard battery (plus any extra registry attacks named
// on the command line) against every estimation scheme, on the mean and
// frequency tasks, and emits the results as markdown and/or a
// machine-readable JSON record.
//
// Usage:
//
//	dapredteam -n 20000 -trials 3 -gamma 0.25
//	dapredteam -json matrix.json -md matrix.md
//	dapredteam -attacks bba,ima,opportunistic
//
// Every run is deterministic for a fixed -seed, independent of -workers:
// each (task, attack) cell owns a fixed rng stream and rows are collected
// in battery order. The scheme rows of a cell share one collection per
// trial, so the matrix is a paired comparison on identical data.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/specflag"
)

func main() {
	var (
		n       = flag.Int("n", 20000, "users per collection")
		trials  = flag.Int("trials", 3, "Monte-Carlo repeats per cell")
		seed    = flag.Uint64("seed", 1, "base random seed")
		gamma   = flag.Float64("gamma", 0.25, "Byzantine proportion for every attacked cell")
		maxIter = flag.Int("maxiter", 200, "EM iteration cap")
		workers = flag.Int("workers", 0, "concurrent matrix cells (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list the attack battery and exit")
		jsonOut = flag.String("json", "", "write the machine-readable matrix record to this path")
		mdOut   = flag.String("md", "", "write the markdown report to this path (default: stdout)")
	)
	attacks := flag.String("attacks", "", "extra numeric registry attacks appended to the battery (comma-separated names, or @file.json / inline JSON per entry)")
	flag.Parse()

	battery := bench.MatrixAttacks()
	if *list {
		for _, na := range battery {
			fmt.Printf("%-22s %s\n", na.Label, na.Spec.Name)
		}
		for _, na := range bench.MatrixFreqAttacks() {
			fmt.Printf("%-22s %s (frequency)\n", na.Label, na.Spec.Name)
		}
		return
	}
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "dapredteam:", err)
			os.Exit(1)
		}
	}
	extra, err := extraAttacks(*attacks)
	fatal(err)

	cfg := bench.Config{N: *n, Trials: *trials, Seed: *seed, EMFMaxIter: *maxIter, Workers: *workers}
	start := time.Now()
	rep, err := bench.RunMatrix(cfg, *gamma, extra)
	fatal(err)

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		fatal(err)
		fatal(os.WriteFile(*jsonOut, append(data, '\n'), 0o644))
		fmt.Fprintf(os.Stderr, "dapredteam: matrix record written to %s\n", *jsonOut)
	}
	out := os.Stdout
	var closeOut func() error
	if *mdOut != "" {
		f, err := os.Create(*mdOut)
		fatal(err)
		closeOut = f.Close
		out = f
	}
	fatal(rep.Markdown(out))
	if closeOut != nil {
		fatal(closeOut())
		fmt.Fprintf(os.Stderr, "dapredteam: markdown report written to %s\n", *mdOut)
	}
	fmt.Fprintf(os.Stderr, "dapredteam: %d cells in %s (N=%d, trials=%d, seed=%d, γ=%g)\n",
		len(rep.Rows), time.Since(start).Round(time.Millisecond), *n, *trials, *seed, *gamma)
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
