package bench

// The red-team robustness matrix: every attack variant in the standard
// battery against every estimation scheme, on the mean task (PM) and the
// frequency task (k-RR). One collection per trial is shared across the
// scheme rows (load.shared, like the paper experiments), so a matrix row
// is a paired comparison on identical data and the whole matrix stays
// cheap enough to run in CI. dapbench -exp matrix drives RunMatrix
// and renders the report.

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
)

// NamedAttack couples a registry attack spec with its matrix row label.
type NamedAttack struct {
	Label string      `json:"label"`
	Spec  attack.Spec `json:"spec"`
}

// MatrixAttacks is the standard numeric red-team battery: the paper's
// four threat models plus the registry's composed variants (dropout,
// heterogeneous and distribution-shaped collusion). The "none" row runs
// at γ=0 and anchors the no-attack error floor.
func MatrixAttacks() []NamedAttack {
	return []NamedAttack{
		{"none", attack.Spec{Name: "none"}},
		{"bba[C/2,C]", attack.Spec{Name: "bba"}},
		{"bba[3C/4,C]-gauss", attack.Spec{Name: "bba", Range: "[3C/4,C]", Dist: "gaussian"}},
		{"bba-left-beta16", attack.Spec{Name: "bba", Side: "left", Dist: "beta16"}},
		{"gba-50/50", attack.Spec{Name: "gba"}},
		{"ima(g=-1)", attack.Spec{Name: "ima"}},
		{"evasion(a=0.25)", attack.Spec{Name: "evasion"}},
		{"opportunistic", attack.Spec{Name: "opportunistic"}},
		{"dropout-50", attack.Spec{Name: "dropout"}},
		{"hetero[1,0.25]", attack.Spec{Name: "hetero", GroupFrac: []float64{1, 0.25}}},
	}
}

// MatrixFreqAttacks is the categorical battery of the frequency panel.
func MatrixFreqAttacks() []NamedAttack {
	return []NamedAttack{
		{"freq-none", attack.Spec{Name: "none"}},
		{"targeted-top", attack.Spec{Name: "targeted", Cats: []int{15}}},
		{"maxgain-2", attack.Spec{Name: "maxgain", Targets: 2}},
	}
}

// MatrixRow is one (task, attack, scheme) cell of the robustness matrix.
type MatrixRow struct {
	// Task is the task kind the cell ran ("mean" or "frequency").
	Task string `json:"task"`
	// Attack is the battery row label; AttackName the built adversary's
	// self-description.
	Attack     string `json:"attack"`
	AttackName string `json:"attack_name"`
	// Scheme is the estimation scheme of the cell.
	Scheme string `json:"scheme"`
	// Gamma is the Byzantine proportion the cell simulated.
	Gamma float64 `json:"gamma"`
	// MSE is the mean squared error of the estimate against the honest
	// truth (component-averaged for frequency rows).
	MSE float64 `json:"mse"`
	// GammaErr is the mean absolute error of the probed γ̂.
	GammaErr float64 `json:"gamma_err"`
}

// MatrixReport is the machine-readable robustness-matrix record; Markdown
// renders the human-readable pivot.
type MatrixReport struct {
	Schema int         `json:"schema"`
	N      int         `json:"n"`
	Trials int         `json:"trials"`
	Seed   uint64      `json:"seed"`
	Gamma  float64     `json:"gamma"`
	Rows   []MatrixRow `json:"rows"`
}

// RunMatrix evaluates the standard attack battery, with extra numeric
// registry attacks appended (dapbench's -attacks), against every
// scheme at the given Byzantine proportion. Deterministic for a fixed
// cfg.Seed, independent of cfg.Workers: every (task, attack) cell owns a
// fixed rng stream and rows are collected in battery order.
func RunMatrix(cfg Config, gamma float64, extra []NamedAttack) (*MatrixReport, error) {
	cfg = cfg.withDefaults()
	if gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("bench: matrix gamma %g outside (0,1)", gamma)
	}
	// Extras join the numeric mean-task panel, which is one-shot batch
	// simulation: categorical attacks would inject out-of-domain reports
	// and epoch-adaptive ones would run at their epoch-0 strength — both
	// would tabulate as meaningless rows, so they fail loudly instead.
	for _, na := range extra {
		if na.Spec.Categorical() {
			return nil, fmt.Errorf("bench: extra attack %q is categorical and cannot join the numeric matrix panel", na.Label)
		}
		if na.Spec.EpochAdaptive() {
			return nil, fmt.Errorf("bench: extra attack %q is epoch-adaptive and the batch matrix has no epochs; drive it with daploadgen -attack-epochs", na.Label)
		}
	}
	ds, err := loadDataset(cfg, "Beta(2,5)")
	if err != nil {
		return nil, err
	}
	daps, err := perScheme(cfg.spec(core.MeanTask(), 1))
	if err != nil {
		return nil, err
	}
	// The frequency panel runs over the synthetic Zipf population of the
	// spec sweep (K=16).
	const k = 16
	cats, freqs := zipfCats(cfg.N, k)
	freqEsts, err := perScheme(cfg.spec(core.FrequencyTask(k), 1))
	if err != nil {
		return nil, err
	}

	// Each (task, attack) cell is one job over Trials shared collections
	// estimated by every scheme; row i of the cell reads scheme i's error
	// and its |γ̂−γ|.
	rep := &MatrixReport{Schema: 1, N: cfg.N, Trials: cfg.Trials, Seed: cfg.Seed, Gamma: gamma}
	var rows []row
	add := func(task core.TaskKind, battery []NamedAttack, base uint64, ests []core.Estimator, w load,
		score func(*core.Result) float64) error {
		for ai, na := range battery {
			adv, err := attack.New(na.Spec)
			if err != nil {
				return err
			}
			g := gamma
			if na.Spec.Name == "none" {
				g = 0
			}
			w.adv, w.gamma = adv, g
			j := cfg.specs(cfg.Seed+base+uint64(ai)*0x1000, ests, w, score, gammaErr(g))
			for i, sc := range core.Schemes() {
				rows = append(rows, row{cells: []cell{{job: j, i: i}, {job: j, i: len(ests) + i}}})
				rep.Rows = append(rep.Rows, MatrixRow{
					Task: string(task), Attack: na.Label, AttackName: adv.Name(), Scheme: sc.String(), Gamma: g,
				})
			}
		}
		return nil
	}
	if err := add(core.TaskMean, append(MatrixAttacks(), extra...), 0xA77AC0, daps,
		load{values: ds.Values}, meanErr(ds.TrueMean())); err != nil {
		return nil, err
	}
	if err := add(core.TaskFrequency, MatrixFreqAttacks(), 0xF4EAC0, freqEsts,
		load{cats: cats}, freqErr(freqs)); err != nil {
		return nil, err
	}
	vals, err := resolve(cfg, []panel{{rows: rows}})
	if err != nil {
		return nil, err
	}
	for i, v := range vals[0] {
		rep.Rows[i].MSE, rep.Rows[i].GammaErr = v[0], v[1]
	}
	return rep, nil
}

// zipfCats builds the deterministic 1/(j+1)-weighted categorical
// population shared with the spec sweep, plus its true frequency vector.
func zipfCats(n, k int) ([]int, []float64) {
	weights := make([]float64, k)
	var wSum float64
	for j := range weights {
		weights[j] = 1 / float64(j+1)
		wSum += weights[j]
	}
	cats := make([]int, n)
	idx := 0
	for j := range weights {
		cnt := int(weights[j] / wSum * float64(n))
		for c := 0; c < cnt && idx < len(cats); c++ {
			cats[idx] = j
			idx++
		}
	}
	for ; idx < len(cats); idx++ {
		cats[idx] = 0
	}
	truth := make([]float64, k)
	for _, c := range cats {
		truth[c] += 1 / float64(len(cats))
	}
	return cats, truth
}

// errWriter forwards writes to w until one fails, then swallows the rest
// and keeps the first error — so a rendering function can print freely
// and report the failure once.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return len(p), nil
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, nil
}

// Markdown renders the report as one pivoted table per task: attacks down
// the rows, schemes across the columns, MSE and γ̂-error side by side.
// The first write error aborts the rendering's effect and is returned.
func (rep *MatrixReport) Markdown(w io.Writer) error {
	ew := &errWriter{w: w}
	byTask := map[string][]MatrixRow{}
	var taskOrder []string
	for _, row := range rep.Rows {
		if _, ok := byTask[row.Task]; !ok {
			taskOrder = append(taskOrder, row.Task)
		}
		byTask[row.Task] = append(byTask[row.Task], row)
	}
	fmt.Fprintf(ew, "# Red-team robustness matrix\n\n")
	fmt.Fprintf(ew, "N=%d users, %d trials per cell, seed %d, γ=%g (the `none` rows run at γ=0).\n",
		rep.N, rep.Trials, rep.Seed, rep.Gamma)
	fmt.Fprintf(ew, "Scheme rows share one collection per trial, so each row is a paired comparison.\n")
	for _, task := range taskOrder {
		rows := byTask[task]
		// Collect scheme order and attack order as first seen.
		var schemes, attacks []string
		cells := map[string]MatrixRow{}
		for _, row := range rows {
			if !slices.Contains(schemes, row.Scheme) {
				schemes = append(schemes, row.Scheme)
			}
			if !slices.Contains(attacks, row.Attack) {
				attacks = append(attacks, row.Attack)
			}
			cells[row.Attack+"\x00"+row.Scheme] = row
		}
		fmt.Fprintf(ew, "\n## task %s\n\n", task)
		header := []string{"attack", "γ"}
		for _, s := range schemes {
			header = append(header, s+" MSE")
		}
		for _, s := range schemes {
			header = append(header, s+" |γ̂−γ|")
		}
		fmt.Fprintf(ew, "| %s |\n|%s\n", strings.Join(header, " | "), strings.Repeat("---|", len(header)))
		for _, a := range attacks {
			// γ from any present cell; missing (attack, scheme) cells render
			// as "-" instead of zero values (partial or filtered reports).
			gammaCell := "-"
			for _, s := range schemes {
				if c, ok := cells[a+"\x00"+s]; ok {
					gammaCell = fmt.Sprintf("%.2f", c.Gamma)
					break
				}
			}
			cols := []string{a, gammaCell}
			for _, s := range schemes {
				if c, ok := cells[a+"\x00"+s]; ok {
					cols = append(cols, fmt.Sprintf("%.3e", c.MSE))
				} else {
					cols = append(cols, "-")
				}
			}
			for _, s := range schemes {
				if c, ok := cells[a+"\x00"+s]; ok {
					cols = append(cols, fmt.Sprintf("%.3f", c.GammaErr))
				} else {
					cols = append(cols, "-")
				}
			}
			fmt.Fprintf(ew, "| %s |\n", strings.Join(cols, " | "))
		}
	}
	return ew.err
}
