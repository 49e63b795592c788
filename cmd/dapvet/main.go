// Command dapvet runs the repository's invariant linter: a stdlib-only
// static-analysis pass (internal/lint) that machine-checks the contracts
// the collector's numbers depend on — deterministic estimate/replay
// paths, mutex ordering against the store, and charge-then-refund budget
// accounting.
//
// Usage:
//
//	dapvet [packages]
//
// Packages default to ./... relative to the current directory. Findings
// print one per line as file:line:col: [rule] message and the exit status
// is 1; a clean tree prints "dapvet: ok" and exits 0. Rules and the
// //dapvet:* directive grammar are documented in DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dapvet [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Checks the repo's correctness contracts. Rules:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	findings, err := lint.Run(lint.Options{Patterns: flag.Args()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dapvet:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "dapvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("dapvet: ok")
}
