package attack

// The attack registry: a declarative, JSON-serializable Spec names an
// adversary and its parameters, and New builds it — the exact mirror of
// defense.Spec / defense.New on the threat side. The registry is how
// attacks travel through the task-spec API: core.Spec carries an optional
// "attack" section, the simulator and experiment harness build adversaries
// from it, and cmd/daploadgen red-teams a live collector with it. Attack
// specs are simulation/client-side only — stream tenants and the wire
// reject them, like the other sim-only faces.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrUnknown is returned by New for attack names outside Names().
var ErrUnknown = errors.New("attack: unknown attack")

// Spec parameterizes an adversary selected by name — the JSON shape
// embedded in the task spec (core.Spec) under "attack". Zero values
// select each attack's documented default; fields an attack does not use
// are ignored. The wrapper attacks (dropout, hetero, ramp, burst)
// compose: Inner names the modulated attack and defaults to the paper's
// standard BBA.
type Spec struct {
	// Name selects the attack; see Names for the registry.
	Name string `json:"name"`
	// Side is BBA's poisoned side: "right" (the default) or "left".
	Side string `json:"side,omitempty"`
	// Range is the poison range label for bba ("[3C/4,C]", "[C/2,C]",
	// "[O,C/2]", "[O,C]", "[C/2,3C/4]"; default "[C/2,C]").
	Range string `json:"range,omitempty"`
	// LeftRange and RightRange are gba's per-side range labels (both
	// default "[C/2,C]").
	LeftRange  string `json:"left_range,omitempty"`
	RightRange string `json:"right_range,omitempty"`
	// Dist is the poison-value distribution for bba/gba/distpoison:
	// "uniform" (default), "gaussian", "beta16", "beta61".
	Dist string `json:"dist,omitempty"`
	// FracLeft is gba's left-side poison share (default 0.5).
	FracLeft float64 `json:"frac_left,omitempty"`
	// G is ima's manipulated input in [−1, 1] (default −1).
	G *float64 `json:"g,omitempty"`
	// A is evasion's decoy fraction (default 0.25).
	A float64 `json:"a,omitempty"`
	// TrimFrac is the trimming fraction opportunistic evades (default
	// 0.5) and Margin its inside-the-threshold safety margin (default
	// 0.02).
	TrimFrac float64 `json:"trim_frac,omitempty"`
	Margin   float64 `json:"margin,omitempty"`
	// Cats are targeted's injected categories (required, non-negative).
	Cats []int `json:"cats,omitempty"`
	// Targets is maxgain's promoted-category count (default 1).
	Targets int `json:"targets,omitempty"`
	// Frac is dropout's per-report drop probability (default 0.5).
	Frac float64 `json:"frac,omitempty"`
	// GroupFrac are hetero's per-group active fractions, cycled over the
	// protocol groups (required, each in [0, 1]).
	GroupFrac []float64 `json:"group_frac,omitempty"`
	// Frac0 and Frac1 are ramp's active-fraction endpoints (defaults 0
	// and 1) and Epochs its length in epochs (default 8).
	Frac0  float64  `json:"frac0,omitempty"`
	Frac1  *float64 `json:"frac1,omitempty"`
	Epochs int      `json:"epochs,omitempty"`
	// Period and Duty shape burst's epoch cycle (defaults 4 and 1).
	Period int `json:"period,omitempty"`
	Duty   int `json:"duty,omitempty"`
	// Inner is the attack a wrapper modulates (default the standard BBA:
	// right side, [C/2,C], uniform).
	Inner *Spec `json:"inner,omitempty"`
}

// Names lists the registered attack names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// registry maps each attack name to its builder. Adding an attack is one
// entry here (plus its Adversary implementation); it then works in every
// spec-driven surface — dapbench (-exp one, spec, matrix), daploadgen.
// Filled by init: the wrapper builders recurse through New, so a literal
// initializer would be an initialization cycle.
var registry map[string]func(Spec) (Adversary, error)

func init() {
	registry = map[string]func(Spec) (Adversary, error){
		"none":          buildNone,
		"bba":           buildBBA,
		"gba":           buildGBA,
		"ima":           buildIMA,
		"evasion":       buildEvasion,
		"opportunistic": buildOpportunistic,
		"swtop":         buildSWTop,
		"distpoison":    buildDistPoison,
		"targeted":      buildTargeted,
		"maxgain":       buildMaxGain,
		"dropout":       buildDropout,
		"hetero":        buildHetero,
		"ramp":          buildRamp,
		"burst":         buildBurst,
	}
}

// New builds the named adversary from sp. Unknown names return an error
// wrapping ErrUnknown, so spec validation can reject them uniformly.
func New(sp Spec) (Adversary, error) {
	build, ok := registry[strings.ToLower(sp.Name)]
	if !ok {
		return nil, fmt.Errorf("%w %q (known: %s)", ErrUnknown, sp.Name, strings.Join(Names(), ", "))
	}
	return build(sp)
}

// Categorical reports whether the spec names a categorical adversary
// (reports are category ids, valid for the frequency task only); wrappers
// inherit from their inner attack.
func (sp Spec) Categorical() bool {
	switch strings.ToLower(sp.Name) {
	case "targeted", "maxgain":
		return true
	case "dropout", "hetero", "ramp", "burst":
		return sp.Inner != nil && sp.Inner.Categorical()
	}
	return false
}

// EpochAdaptive reports whether the spec names an epoch-keyed attacker
// (ramp, burst), directly or through a wrapper chain. Epoch-adaptive
// attacks need a surface that advances Env.Epoch (the serving layer /
// daploadgen); one-shot batch collections run at epoch 0, where a ramp
// emits only its frac0 fraction — epoch-less harnesses reject or warn on
// these specs instead of tabulating silently weakened attacks.
func (sp Spec) EpochAdaptive() bool {
	switch strings.ToLower(sp.Name) {
	case "ramp", "burst":
		return true
	case "dropout", "hetero":
		return sp.Inner != nil && sp.Inner.EpochAdaptive()
	}
	return false
}

// EpochSpan returns the number of epochs over which an epoch-adaptive
// spec's schedule plays out (the ramp length, the burst period — the
// innermost adaptive attack wins), or 1 for attacks with no epoch axis.
// daploadgen uses it to size -attack-epochs when the flag is left unset.
func (sp Spec) EpochSpan() int {
	switch strings.ToLower(sp.Name) {
	case "ramp":
		if sp.Epochs > 0 {
			return sp.Epochs
		}
		return 8
	case "burst":
		if sp.Period > 0 {
			return sp.Period
		}
		return 4
	case "dropout", "hetero":
		if sp.Inner != nil {
			return sp.Inner.EpochSpan()
		}
	}
	return 1
}

// ParseSide parses a poisoned-side name ("" and "right" select SideRight).
func ParseSide(s string) (Side, error) {
	switch strings.ToLower(s) {
	case "", "right":
		return SideRight, nil
	case "left":
		return SideLeft, nil
	}
	return SideRight, fmt.Errorf("attack: unknown side %q (want left or right)", s)
}

// ParseDist parses a poison-distribution name ("" selects uniform).
func ParseDist(s string) (Dist, error) {
	switch strings.ToLower(s) {
	case "", "uniform":
		return DistUniform, nil
	case "gaussian":
		return DistGaussian, nil
	case "beta16", "beta(1,6)":
		return DistBeta16, nil
	case "beta61", "beta(6,1)":
		return DistBeta61, nil
	}
	return 0, fmt.Errorf("attack: unknown distribution %q (want uniform, gaussian, beta16 or beta61)", s)
}

// rangeOrDefault resolves a range label, defaulting to the paper's
// standard [C/2, C].
func rangeOrDefault(label string) (Range, error) {
	if label == "" {
		return RangeHighHalf, nil
	}
	rg, ok := RangeByName(label)
	if !ok {
		return Range{}, fmt.Errorf("attack: unknown range %q", label)
	}
	return rg, nil
}

func checkFrac(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("attack: %s %g outside [0,1]", name, v)
	}
	return nil
}

func buildNone(Spec) (Adversary, error) { return None{}, nil }

func buildBBA(sp Spec) (Adversary, error) {
	side, err := ParseSide(sp.Side)
	if err != nil {
		return nil, err
	}
	rg, err := rangeOrDefault(sp.Range)
	if err != nil {
		return nil, err
	}
	dist, err := ParseDist(sp.Dist)
	if err != nil {
		return nil, err
	}
	return &BBA{Side: side, Range: rg, Dist: dist}, nil
}

func buildGBA(sp Spec) (Adversary, error) {
	frac := sp.FracLeft
	if frac == 0 {
		frac = 0.5
	}
	if err := checkFrac("frac_left", frac); err != nil {
		return nil, err
	}
	left, err := rangeOrDefault(sp.LeftRange)
	if err != nil {
		return nil, err
	}
	right, err := rangeOrDefault(sp.RightRange)
	if err != nil {
		return nil, err
	}
	dist, err := ParseDist(sp.Dist)
	if err != nil {
		return nil, err
	}
	return &GBA{FracLeft: frac, LeftRange: left, RightRange: right, Dist: dist}, nil
}

func buildIMA(sp Spec) (Adversary, error) {
	g := -1.0
	if sp.G != nil {
		g = *sp.G
	}
	if g < -1 || g > 1 {
		return nil, fmt.Errorf("attack: ima input g=%g outside [-1,1]", g)
	}
	return &IMA{G: g}, nil
}

func buildEvasion(sp Spec) (Adversary, error) {
	a := sp.A
	if a == 0 {
		a = 0.25
	}
	if err := checkFrac("evasion fraction a", a); err != nil {
		return nil, err
	}
	return &Evasion{A: a}, nil
}

func buildOpportunistic(sp Spec) (Adversary, error) {
	trim := sp.TrimFrac
	if trim == 0 {
		trim = 0.5
	}
	if err := checkFrac("trim_frac", trim); err != nil {
		return nil, err
	}
	if sp.Margin < 0 {
		return nil, fmt.Errorf("attack: margin %g must be non-negative", sp.Margin)
	}
	return &Opportunistic{TrimFrac: trim, Margin: sp.Margin}, nil
}

func buildSWTop(Spec) (Adversary, error) { return SWTop{}, nil }

func buildDistPoison(sp Spec) (Adversary, error) {
	dist := DistBeta61
	if sp.Dist != "" {
		var err error
		if dist, err = ParseDist(sp.Dist); err != nil {
			return nil, err
		}
	}
	return &DistPoison{Dist: dist}, nil
}

func buildTargeted(sp Spec) (Adversary, error) {
	if len(sp.Cats) == 0 {
		return nil, errors.New("attack: targeted needs at least one category in cats")
	}
	for _, c := range sp.Cats {
		if c < 0 {
			return nil, fmt.Errorf("attack: negative target category %d", c)
		}
	}
	return &Targeted{Cats: append([]int(nil), sp.Cats...)}, nil
}

func buildMaxGain(sp Spec) (Adversary, error) {
	if sp.Targets < 0 {
		return nil, fmt.Errorf("attack: targets must be non-negative (got %d)", sp.Targets)
	}
	return &MaxGain{Targets: sp.Targets}, nil
}

// inner builds a wrapper's modulated attack, defaulting to the paper's
// standard BBA.
func inner(sp Spec) (Adversary, error) {
	if sp.Inner == nil {
		return NewBBA(RangeHighHalf, DistUniform), nil
	}
	return New(*sp.Inner)
}

func buildDropout(sp Spec) (Adversary, error) {
	frac := sp.Frac
	if frac == 0 {
		frac = 0.5
	}
	if err := checkFrac("dropout frac", frac); err != nil {
		return nil, err
	}
	in, err := inner(sp)
	if err != nil {
		return nil, err
	}
	return &Dropout{Frac: frac, Inner: in}, nil
}

func buildHetero(sp Spec) (Adversary, error) {
	if len(sp.GroupFrac) == 0 {
		return nil, errors.New("attack: hetero needs per-group fractions in group_frac")
	}
	for _, f := range sp.GroupFrac {
		if err := checkFrac("group_frac entry", f); err != nil {
			return nil, err
		}
	}
	in, err := inner(sp)
	if err != nil {
		return nil, err
	}
	return &Hetero{Fracs: append([]float64(nil), sp.GroupFrac...), Inner: in}, nil
}

func buildRamp(sp Spec) (Adversary, error) {
	frac1 := 1.0
	if sp.Frac1 != nil {
		frac1 = *sp.Frac1
	}
	if err := checkFrac("frac0", sp.Frac0); err != nil {
		return nil, err
	}
	if err := checkFrac("frac1", frac1); err != nil {
		return nil, err
	}
	epochs := sp.Epochs
	if epochs == 0 {
		epochs = 8
	}
	if epochs < 1 {
		return nil, fmt.Errorf("attack: ramp epochs must be positive (got %d)", epochs)
	}
	in, err := inner(sp)
	if err != nil {
		return nil, err
	}
	return &Ramp{Frac0: sp.Frac0, Frac1: frac1, Epochs: epochs, Inner: in}, nil
}

func buildBurst(sp Spec) (Adversary, error) {
	period := sp.Period
	if period == 0 {
		period = 4
	}
	duty := sp.Duty
	if duty == 0 {
		duty = 1
	}
	if period < 1 || duty < 1 || duty > period {
		return nil, fmt.Errorf("attack: burst needs 1 <= duty <= period (got duty=%d period=%d)", duty, period)
	}
	in, err := inner(sp)
	if err != nil {
		return nil, err
	}
	return &Burst{Period: period, Duty: duty, Inner: in}, nil
}
