// Package bench is the experiment harness: it regenerates the rows and
// series of every table and figure of the paper's evaluation (§VI). Each
// experiment declares panels — labelled rows over one column axis (ε, γ,
// attack, a, β, …) — whose cells are jobs: one (estimator spec, dataset,
// attack, γ, metric, seed) Monte-Carlo evaluation each, with comparators
// that exist only as code (k-means, isolation forest, the SW baselines,
// the side probe) as the exception. One scheduler runs every job on a
// bounded pool and fills the tables in row order. The cmd/dapbench CLI
// drives this package.
//
// Absolute values depend on N (the paper uses ~10⁶ users; the default
// here is laptop-scale) and on the synthetic substitutes for the
// real-world datasets, but the comparative shapes — who wins, by what
// order of magnitude, where the crossovers fall — reproduce the paper;
// see EXPERIMENTS.md for the per-experiment record.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
)

// Config scales an experiment run.
type Config struct {
	// N is the number of users per collection (default 20000).
	N int
	// Trials is the number of Monte-Carlo repeats per cell (default 3).
	Trials int
	// Seed drives all randomness (default 1).
	Seed uint64
	// EMFMaxIter caps EM iterations (default 200 — enough for laptop-scale
	// N; raise along with N).
	EMFMaxIter int
	// Workers caps the number of experiment cells evaluated concurrently
	// (0 selects GOMAXPROCS). Tables are byte-identical for every Workers
	// value: cell seeds are fixed at scheduling time and results are
	// collected in table order.
	Workers int
	// Spec is the user-supplied task spec evaluated by the "spec"
	// experiment (cmd/dapbench -exp spec); other experiments ignore it.
	Spec *core.Spec
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EMFMaxIter <= 0 {
		c.EMFMaxIter = 200
	}
	return c
}

// Table is one printable result table (a sub-figure or table panel).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner regenerates one paper table or figure.
type Runner func(cfg Config) ([]*Table, error)

var registry = map[string]Runner{
	"table1":   Table1,
	"fig4":     Fig4,
	"fig5":     Fig5,
	"fig6":     Fig6,
	"fig7":     Fig7,
	"fig8":     Fig8,
	"fig9":     Fig9,
	"fig10":    Fig10,
	"ablation": Ablation,
	"spec":     SpecSweep,
}

// Experiments lists the registered experiment ids in sorted order.
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id.
func Run(name string, cfg Config) ([]*Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(Experiments(), ", "))
	}
	return r(cfg.withDefaults())
}

func f2s(v float64) string { return fmt.Sprintf("%.4g", v) }

func e2s(v float64) string { return fmt.Sprintf("%.3e", v) }
