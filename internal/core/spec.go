package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/defense"
)

// Typed error taxonomy of the task-spec API. Every spec rejection wraps
// ErrBadSpec; every out-of-domain value wraps ErrDomain — callers branch
// with errors.Is instead of string matching. (Budget exhaustion keeps its
// existing sentinel, privacy.ErrBudgetExceeded, re-exported by the root
// package as ErrBudgetExhausted.)
var (
	// ErrBadSpec marks a task spec that fails validation: unknown task,
	// scheme, weights, window or defense name, or inconsistent parameters.
	ErrBadSpec = errors.New("core: bad task spec")
	// ErrDomain marks a value outside the domain a spec or mechanism
	// prescribes.
	ErrDomain = errors.New("core: value outside domain")
	// ErrBadCollection marks a collection whose shape does not match the
	// spec that built it: wrong group count, missing histograms or sums,
	// empty groups, mismatched arities.
	ErrBadCollection = errors.New("core: bad collection shape")
)

// badSpec builds an error wrapping ErrBadSpec.
func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// badCollection builds an error wrapping ErrBadCollection.
func badCollection(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadCollection, fmt.Sprintf(format, args...))
}

// TaskKind names what a task estimates. Kinds marshal as their string
// value, so specs read naturally on the wire and on disk.
type TaskKind string

// Task kinds.
const (
	// TaskMean estimates the mean of values in [−1,1] over the Piecewise
	// Mechanism (§V).
	TaskMean TaskKind = "mean"
	// TaskDistribution estimates the distribution (and mean) of values in
	// [0,1] over Square Wave (§V-D).
	TaskDistribution TaskKind = "distribution"
	// TaskFrequency estimates category frequencies over k-RR (§V-D).
	TaskFrequency TaskKind = "frequency"
	// TaskVariance estimates the variance of values in [−1,1] by splitting
	// the population across two mean protocols (§V-D).
	TaskVariance TaskKind = "variance"
	// TaskBaseline is the §IV two-budget protocol.
	TaskBaseline TaskKind = "baseline"
)

// Tasks lists the task kinds in paper order.
func Tasks() []TaskKind {
	return []TaskKind{TaskMean, TaskDistribution, TaskFrequency, TaskVariance, TaskBaseline}
}

// ParseTask parses a task kind name, accepting the serving layer's
// historical aliases ("freq", "dist", and the mechanism names "pm", "sw",
// "krr"). Empty selects TaskMean.
func ParseTask(s string) (TaskKind, error) {
	switch strings.ToLower(s) {
	case "", "mean", "pm":
		return TaskMean, nil
	case "dist", "distribution", "sw":
		return TaskDistribution, nil
	case "freq", "frequency", "krr":
		return TaskFrequency, nil
	case "var", "variance":
		return TaskVariance, nil
	case "baseline":
		return TaskBaseline, nil
	}
	return "", badSpec("unknown task %q", s)
}

// String implements fmt.Stringer.
func (k TaskKind) String() string { return string(k) }

// DomainSpec declares the raw-value domain of the quantity being
// estimated, making unit conversion part of the task description instead
// of ad-hoc caller code: protocols run on their native unit domain, and
// Spec.FromUnit/ToUnit translate results back to these units.
type DomainSpec struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Upper bounds on a ServeSpec. A tenant allocates shards × buckets floats
// per group when it is created — buckets derived from expected_users by
// the paper's d′ = ⌊√n⌋ rule when not fixed — so a spec arriving over the
// wire must not be able to name arbitrary sizes. Each bound is at least
// 8× the largest value any committed spec, test or benchmark uses. The
// span bound is the loosest: the sealed ring grows by one epoch per
// rotation, never up front.
const (
	MaxServeShards        = 1 << 8
	MaxServeBuckets       = 1 << 12
	MaxServeSpan          = 1 << 23
	MaxServeExpectedUsers = 1 << 22
)

// MaxGroups bounds the group count h = ⌈log₂(ε/ε₀)⌉+1, i.e. ε/ε₀ ≤ 2¹⁵ (the
// largest ratio any committed spec, test or figure uses is 2¹⁰). Group t
// reports 2^t times, so h drives both the report volume a tenant sizes its
// histograms for (d′ = ⌊√(users·2^t)⌋ per group) and the shift in
// Group.Reports. With every serve bound at its maximum, 16 groups admit
// Σ_t ⌊√(2¹⁸·2^t)⌋ ≈ 3.2·10⁵ buckets per stripe — about 620 MiB of live
// histograms across 256 stripes; at the serve defaults (4096 users, 8
// stripes) about 0.6 MiB.
const MaxGroups = 16

// ServeSpec carries the serving-layer parameters of a task — how a stream
// tenant hosting this spec shards, buckets and windows its histograms.
// Batch estimation ignores it. Zero values select the engine defaults,
// which stream.ConfigFromSpec fills in.
type ServeSpec struct {
	// Buckets fixes one output histogram resolution d′ for every group;
	// zero derives per-group resolutions from ExpectedUsers.
	Buckets int `json:"buckets,omitempty"`
	// ExpectedUsers is the anticipated user population per window.
	ExpectedUsers int `json:"expected_users,omitempty"`
	// Shards is the number of lock stripes per group histogram.
	Shards int `json:"shards,omitempty"`
	// Window selects the epoch window shape: "tumbling" (default; "fixed"
	// is an alias) or "sliding", in any case. Normalize canonicalizes it.
	Window string `json:"window,omitempty"`
	// Span is the sliding window length in epochs.
	Span int `json:"span,omitempty"`
	// EpochMs is the epoch length in milliseconds driving automatic
	// rotation; zero means manual rotation only.
	EpochMs int64 `json:"epoch_ms,omitempty"`
	// Warm seeds each epoch re-estimation from the previous rotation's EM
	// fits (solver warm start). Off, every estimate is bit-identical to
	// batch estimation over the same histograms; on, estimates are
	// tolerance-equivalent (same fixed point within the EM termination
	// rule) and epoch re-estimation latency drops substantially.
	Warm bool `json:"warm,omitempty"`
	// Wire is the preferred ingest wire clients of this tenant should use:
	// "json" (default; JSON over HTTP), "bin" (binary frames over HTTP,
	// lossless) or "udp" (binary frames over UDP, best-effort). All three
	// wires are always served; this field is advisory routing for clients
	// such as daploadgen.
	Wire string `json:"wire,omitempty"`
	// UDPAddr is the UDP listen address for the binary ingest socket
	// (e.g. ":9200"); empty leaves UDP ingest closed unless the collector
	// is started with an explicit -udp flag.
	UDPAddr string `json:"udp_addr,omitempty"`
}

// Spec is the declarative, JSON-serializable description of one
// aggregation task. The same spec drives batch estimation (Build), a
// stream tenant (its whole configuration: stream.ConfigFromSpec fills the
// Serve defaults and the result is the tenant's effective spec), the wire
// API (tenant CRUD accepts and returns it) and the CLIs (-spec
// file.json). Construct specs with NewSpec and functional options, or
// unmarshal them from JSON; Validate (called by Build) rejects malformed
// specs with ErrBadSpec.
type Spec struct {
	// Task selects what is estimated.
	Task TaskKind `json:"task"`
	// Mechanism names the LDP mechanism ("pm", "sw", "krr"). Empty selects
	// the task's native mechanism; naming any other combination is
	// rejected, keeping the field explicit for future backends.
	Mechanism string `json:"mechanism,omitempty"`
	// Scheme selects EMF, EMF* or CEMF* estimation (names as accepted by
	// ParseScheme; empty selects CEMF*).
	Scheme string `json:"scheme,omitempty"`
	// Weights selects the inter-group aggregation weights ("paper" or
	// "general"; empty selects paper).
	Weights string `json:"weights,omitempty"`
	// Eps and Eps0 are the total per-user budget ε and the minimal group
	// budget ε₀ (Eps0 zero selects Eps/16, the paper's ratio at ε=1).
	Eps  float64 `json:"eps"`
	Eps0 float64 `json:"eps0,omitempty"`
	// K is the category count (TaskFrequency).
	K int `json:"k,omitempty"`
	// EpsAlpha and EpsBeta split ε for TaskBaseline (zero selects the
	// ε/8 : 7ε/8 split).
	EpsAlpha float64 `json:"eps_alpha,omitempty"`
	EpsBeta  float64 `json:"eps_beta,omitempty"`
	// OPrime, AutoOPrime and GammaSup configure the pessimistic mean
	// initialization (TaskMean, TaskBaseline).
	OPrime     float64 `json:"oprime,omitempty"`
	AutoOPrime bool    `json:"auto_oprime,omitempty"`
	GammaSup   float64 `json:"gamma_sup,omitempty"`
	// SuppressFactor is CEMF*'s concentration threshold factor (zero
	// selects 0.5).
	SuppressFactor float64 `json:"suppress_factor,omitempty"`
	// EMFMaxIter caps EM iterations per fit (zero selects the emf
	// default).
	EMFMaxIter int `json:"emf_max_iter,omitempty"`
	// TrimFrac is the SW pessimistic-O′ trim fraction (TaskDistribution).
	TrimFrac float64 `json:"trim_frac,omitempty"`
	// Domain optionally declares the raw-value units of the estimated
	// quantity (see DomainSpec).
	Domain *DomainSpec `json:"domain,omitempty"`
	// Defense replaces the DAP protocol with a comparator defense over a
	// single-group collection at budget Eps (TaskMean only).
	Defense *defense.Spec `json:"defense,omitempty"`
	// Attack names the simulated adversary for the spec's simulation faces
	// (dapbench -exp one and -exp spec, the red-team matrix, daploadgen's
	// client mix), selected from the attack registry (attack.New). Like the other
	// simulation-only faces it never crosses the wire: stream tenants and
	// the collector reject specs that carry it.
	Attack *attack.Spec `json:"attack,omitempty"`
	// Serve carries the serving-layer parameters for stream tenants.
	Serve *ServeSpec `json:"serve,omitempty"`
}

// Option mutates a Spec under construction.
type Option func(*Spec)

// NewSpec builds a Spec from a task selector (MeanTask, DistributionTask,
// FrequencyTask, VarianceTask, BaselineTask) and options. The zero budget defaults to
// the paper's ε=1, ε₀=1/16.
func NewSpec(task Option, opts ...Option) Spec {
	sp := Spec{Eps: 1}
	task(&sp)
	for _, o := range opts {
		o(&sp)
	}
	return sp
}

// MeanTask selects mean estimation over PM.
func MeanTask() Option { return func(sp *Spec) { sp.Task = TaskMean } }

// DistributionTask selects distribution estimation over SW.
func DistributionTask() Option { return func(sp *Spec) { sp.Task = TaskDistribution } }

// FrequencyTask selects categorical frequency estimation over k-RR with k
// categories.
func FrequencyTask(k int) Option {
	return func(sp *Spec) { sp.Task = TaskFrequency; sp.K = k }
}

// VarianceTask selects variance estimation (two mean protocols over split
// populations).
func VarianceTask() Option { return func(sp *Spec) { sp.Task = TaskVariance } }

// BaselineTask selects the §IV two-budget protocol with probing budget
// epsAlpha and estimation budget epsBeta.
func BaselineTask(epsAlpha, epsBeta float64) Option {
	return func(sp *Spec) {
		sp.Task = TaskBaseline
		sp.EpsAlpha, sp.EpsBeta = epsAlpha, epsBeta
		sp.Eps = epsAlpha + epsBeta
	}
}

// WithBudget sets the total budget ε and minimal group budget ε₀.
func WithBudget(eps, eps0 float64) Option {
	return func(sp *Spec) { sp.Eps, sp.Eps0 = eps, eps0 }
}

// WithScheme selects the estimation scheme.
func WithScheme(s Scheme) Option {
	return func(sp *Spec) { sp.Scheme = s.String() }
}

// WithWeights selects the inter-group aggregation weights.
func WithWeights(m WeightMode) Option {
	return func(sp *Spec) { sp.Weights = m.String() }
}

// WithDomain declares the raw-value domain [lo, hi] of the estimated
// quantity.
func WithDomain(lo, hi float64) Option {
	return func(sp *Spec) { sp.Domain = &DomainSpec{Lo: lo, Hi: hi} }
}

// WithDefense replaces the protocol with the named comparator defense.
func WithDefense(d defense.Spec) Option {
	return func(sp *Spec) { sp.Defense = &d }
}

// WithAttack names the simulated adversary driving the spec's simulation
// faces (see Spec.Attack).
func WithAttack(a attack.Spec) Option {
	return func(sp *Spec) { sp.Attack = &a }
}

// WithOPrime fixes the pessimistic mean initialization O′.
func WithOPrime(o float64) Option { return func(sp *Spec) { sp.OPrime = o } }

// WithAutoOPrime derives O′ per Theorem 2 with the given γ upper bound
// (zero selects the threat model's 1/2).
func WithAutoOPrime(gammaSup float64) Option {
	return func(sp *Spec) { sp.AutoOPrime = true; sp.GammaSup = gammaSup }
}

// WithSuppressFactor sets CEMF*'s concentration threshold factor.
func WithSuppressFactor(f float64) Option {
	return func(sp *Spec) { sp.SuppressFactor = f }
}

// WithEMFMaxIter caps EM iterations per fit.
func WithEMFMaxIter(n int) Option { return func(sp *Spec) { sp.EMFMaxIter = n } }

// WithTrimFrac sets the SW pessimistic-O′ trim fraction.
func WithTrimFrac(f float64) Option { return func(sp *Spec) { sp.TrimFrac = f } }

// WithServe attaches serving-layer parameters for stream tenants.
func WithServe(s ServeSpec) Option {
	return func(sp *Spec) { sp.Serve = &s }
}

// nativeMechanism returns the mechanism each task runs on.
func (k TaskKind) nativeMechanism() string {
	switch k {
	case TaskDistribution:
		return "sw"
	case TaskFrequency:
		return "krr"
	default:
		return "pm"
	}
}

// windowMode maps a window-shape name a ServeSpec may carry to its
// canonical form, "tumbling" or "sliding". Names are case-insensitive,
// "fixed" is an alias of tumbling and the empty name selects it; ok is
// false for any other name.
func windowMode(s string) (canonical string, ok bool) {
	switch strings.ToLower(s) {
	case "", "tumbling", "fixed":
		return "tumbling", true
	case "sliding":
		return "sliding", true
	}
	return s, false
}

// Normalize fills the spec's defaulted fields (mechanism, scheme, weights,
// ε₀, the baseline split, the serve window name) and returns the effective
// spec. It does not validate; Build and Validate call it internally.
func (sp Spec) Normalize() Spec {
	if sp.Task == "" {
		sp.Task = TaskMean
	}
	if k, err := ParseTask(string(sp.Task)); err == nil {
		sp.Task = k
	}
	sp.Mechanism = strings.ToLower(sp.Mechanism)
	if sp.Mechanism == "" {
		sp.Mechanism = sp.Task.nativeMechanism()
	}
	// Canonicalize the scheme and weight names so normalized specs compare
	// and round-trip stably ("" and "cemfstar" both become "CEMF*").
	if s, err := ParseScheme(sp.Scheme); err == nil {
		sp.Scheme = s.String()
	}
	if w, err := ParseWeightMode(sp.Weights); err == nil {
		sp.Weights = w.String()
	}
	if sp.Task == TaskBaseline {
		if sp.EpsAlpha == 0 && sp.EpsBeta == 0 && sp.Eps > 0 {
			sp.EpsAlpha, sp.EpsBeta = sp.Eps/8, sp.Eps*7/8
		}
		if sp.Eps == 0 {
			sp.Eps = sp.EpsAlpha + sp.EpsBeta
		}
	} else if sp.Eps0 == 0 {
		sp.Eps0 = sp.Eps / 16
	}
	if sp.Serve != nil {
		s := *sp.Serve // the caller's section stays as given
		s.Window, _ = windowMode(s.Window)
		sp.Serve = &s
	}
	return sp
}

// Validate rejects malformed specs. Every rejection wraps ErrBadSpec
// (domain problems additionally wrap ErrDomain).
func (sp Spec) Validate() error {
	sp = sp.Normalize()
	if _, err := ParseTask(string(sp.Task)); err != nil {
		return err
	}
	if sp.Mechanism != sp.Task.nativeMechanism() {
		return badSpec("mechanism %q is not supported for task %q (want %q)",
			sp.Mechanism, sp.Task, sp.Task.nativeMechanism())
	}
	if _, err := ParseScheme(sp.Scheme); err != nil {
		return badSpec("%v", err)
	}
	if _, err := ParseWeightMode(sp.Weights); err != nil {
		return badSpec("%v", err)
	}
	switch sp.Task {
	case TaskBaseline:
		if sp.EpsAlpha <= 0 || sp.EpsBeta <= 0 || sp.EpsAlpha >= sp.EpsBeta {
			return badSpec("baseline budgets must satisfy 0 < eps_alpha < eps_beta (got α=%g, β=%g)",
				sp.EpsAlpha, sp.EpsBeta)
		}
	default:
		if err := validateBudgets(sp.Eps, sp.Eps0); err != nil {
			return badSpec("%v", err)
		}
	}
	if sp.Task == TaskFrequency && sp.K < 2 {
		return badSpec("frequency estimation needs k >= 2 (got %d)", sp.K)
	}
	if sp.Defense != nil {
		if sp.Task != TaskMean {
			return badSpec("defenses apply to task %q only (got %q)", TaskMean, sp.Task)
		}
		if _, err := defense.New(*sp.Defense); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		switch sp.Defense.Side {
		case "", "left", "right":
		default:
			return badSpec("unknown defense side %q (want left or right)", sp.Defense.Side)
		}
	}
	if a := sp.Attack; a != nil {
		if _, err := attack.New(*a); err != nil {
			// %w on both: callers branch on ErrBadSpec or attack.ErrUnknown.
			return fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		// "none" fits every task; otherwise categorical attacks pair with
		// the frequency task and numeric attacks with everything else.
		if !strings.EqualFold(a.Name, "none") && a.Categorical() != (sp.Task == TaskFrequency) {
			if a.Categorical() {
				return badSpec("attack %q injects categories and applies to task %q only (got %q)",
					a.Name, TaskFrequency, sp.Task)
			}
			return badSpec("attack %q injects numeric reports and cannot drive task %q (use a categorical attack such as targeted or maxgain)",
				a.Name, sp.Task)
		}
	}
	if d := sp.Domain; d != nil {
		if math.IsNaN(d.Lo) || math.IsNaN(d.Hi) || math.IsInf(d.Lo, 0) || math.IsInf(d.Hi, 0) || d.Lo >= d.Hi {
			return fmt.Errorf("%w: domain [%g, %g] is empty or non-finite: %w",
				ErrBadSpec, d.Lo, d.Hi, ErrDomain)
		}
	}
	if s := sp.Serve; s != nil {
		if s.Buckets < 0 || s.ExpectedUsers < 0 || s.Shards < 0 || s.Span < 0 || s.EpochMs < 0 {
			return badSpec("serve parameters must be non-negative")
		}
		if s.Shards > MaxServeShards || s.Buckets > MaxServeBuckets ||
			s.Span > MaxServeSpan || s.ExpectedUsers > MaxServeExpectedUsers {
			return badSpec("serve parameters exceed their bounds (shards ≤ %d, buckets ≤ %d, span ≤ %d, expected_users ≤ %d)",
				MaxServeShards, MaxServeBuckets, MaxServeSpan, MaxServeExpectedUsers)
		}
		if _, ok := windowMode(s.Window); !ok {
			return badSpec("unknown window mode %q", s.Window)
		}
		switch strings.ToLower(s.Wire) {
		case "", "json", "bin", "udp":
		default:
			return badSpec("unknown wire %q (want json, bin or udp)", s.Wire)
		}
	}
	if sp.TrimFrac < 0 || sp.TrimFrac >= 1 {
		return badSpec("trim_frac %g outside [0,1)", sp.TrimFrac)
	}
	if sp.SuppressFactor < 0 {
		return badSpec("suppress_factor must be non-negative")
	}
	if sp.GammaSup < 0 || sp.GammaSup >= 1 {
		return badSpec("gamma_sup %g outside [0,1)", sp.GammaSup)
	}
	if sp.EMFMaxIter < 0 {
		return badSpec("emf_max_iter must be non-negative")
	}
	return nil
}

// unitDomain returns the protocol's native input domain for the task.
func (sp Spec) unitDomain() (lo, hi float64) {
	if sp.Task == TaskDistribution {
		return 0, 1
	}
	return -1, 1
}

// ToUnit maps a raw value from the declared Domain into the protocol's
// native input domain ([−1,1] for mean/variance, [0,1] for
// distribution). Without a Domain it returns v unchanged.
func (sp Spec) ToUnit(v float64) float64 {
	if sp.Domain == nil {
		return v
	}
	lo, hi := sp.unitDomain()
	return lo + (hi-lo)*(v-sp.Domain.Lo)/(sp.Domain.Hi-sp.Domain.Lo)
}

// FromUnit maps a protocol-domain value back into the declared Domain's
// units. Without a Domain it returns v unchanged.
func (sp Spec) FromUnit(v float64) float64 {
	if sp.Domain == nil {
		return v
	}
	lo, hi := sp.unitDomain()
	return sp.Domain.Lo + (sp.Domain.Hi-sp.Domain.Lo)*(v-lo)/(hi-lo)
}

// Adversary builds the spec's simulated adversary from the attack
// registry, or nil when the spec carries no attack section (callers keep
// their own default). Build errors wrap ErrBadSpec.
func (sp Spec) Adversary() (attack.Adversary, error) {
	if sp.Attack == nil {
		return nil, nil
	}
	adv, err := attack.New(*sp.Attack)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return adv, nil
}

// MarshalJSONIndent renders the spec as the canonical indented JSON used
// by the specs/ directory and the CLIs.
func (sp Spec) MarshalJSONIndent() ([]byte, error) {
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseSpec decodes a JSON spec strictly: unknown fields are rejected
// (wrapping ErrBadSpec), so typos in spec files fail loudly instead of
// silently selecting defaults. The decoded spec is validated.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// LoadSpec reads and parses a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	sp, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}
