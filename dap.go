package dap

import (
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/privacy"
)

// ---------------------------------------------------------------------------
// The task-spec API: one declarative Spec, one Build call, one Estimator
// surface and one Result type across batch estimation, stream tenants,
// the wire API and the CLIs. See doc.go for the quick start and DESIGN.md
// for the old-API → new-API migration table.
// ---------------------------------------------------------------------------

// Task-spec types.
type (
	// Spec is the JSON-serializable description of one aggregation task.
	Spec = core.Spec
	// TaskKind names what a task estimates.
	TaskKind = core.TaskKind
	// Option mutates a Spec under construction (see NewSpec).
	Option = core.Option
	// DomainSpec declares the raw-value units of the estimated quantity.
	DomainSpec = core.DomainSpec
	// ServeSpec carries a spec's serving-layer parameters (stream tenants).
	ServeSpec = core.ServeSpec
	// DefenseSpec selects a comparator defense by name inside a Spec.
	DefenseSpec = defense.Spec
	// Estimator is the unified estimation surface returned by Build.
	Estimator = core.Estimator
	// Result is the unified collector output of every task kind.
	Result = core.Result
	// Runner is the numeric simulation entry point (Collect + Estimate).
	Runner = core.Runner
	// CatRunner is the categorical simulation entry point.
	CatRunner = core.CatRunner
	// Collector simulates the user side of a task into a Collection.
	Collector = core.Collector
	// HistCollection is the histogram sufficient statistic consumed by
	// Estimator.EstimateHist.
	HistCollection = core.HistCollection
)

// Task kinds.
const (
	TaskMean         = core.TaskMean
	TaskDistribution = core.TaskDistribution
	TaskFrequency    = core.TaskFrequency
	TaskVariance     = core.TaskVariance
	TaskBaseline     = core.TaskBaseline
)

// Spec construction and building.
var (
	// NewSpec builds a Spec from a task selector and options:
	//
	//	sp := dap.NewSpec(dap.Mean(), dap.WithScheme(dap.SchemeCEMFStar),
	//	    dap.WithBudget(1, 1.0/16))
	//	est, err := dap.Build(sp)
	NewSpec = core.NewSpec
	// Build validates a Spec and returns its Estimator — the single
	// construction path shared with stream tenants, the wire API and the
	// CLIs.
	Build = core.Build
	// ParseSpec decodes and validates a JSON spec (unknown fields
	// rejected).
	ParseSpec = core.ParseSpec
	// LoadSpec reads and parses a JSON spec file.
	LoadSpec = core.LoadSpec
	// ParseTask parses a task kind name.
	ParseTask = core.ParseTask
	// Tasks lists the task kinds.
	Tasks = core.Tasks

	// Task selectors for NewSpec; BaselineTask selects the §IV two-budget
	// protocol.
	Mean         = core.MeanTask
	Distribution = core.DistributionTask
	Frequency    = core.FrequencyTask
	Variance     = core.VarianceTask
	BaselineTask = core.BaselineTask

	// Spec options.
	WithBudget         = core.WithBudget
	WithScheme         = core.WithScheme
	WithWeights        = core.WithWeights
	WithDomain         = core.WithDomain
	WithDefense        = core.WithDefense
	WithOPrime         = core.WithOPrime
	WithAutoOPrime     = core.WithAutoOPrime
	WithSuppressFactor = core.WithSuppressFactor
	WithEMFMaxIter     = core.WithEMFMaxIter
	WithTrimFrac       = core.WithTrimFrac
	WithServe          = core.WithServe
	WithAttack         = core.WithAttack
)

// Typed error taxonomy. Branch with errors.Is.
var (
	// ErrBadSpec marks a task spec that fails validation.
	ErrBadSpec = core.ErrBadSpec
	// ErrDomain marks a value outside the domain a spec or mechanism
	// prescribes.
	ErrDomain = core.ErrDomain
	// ErrBadCollection marks a collection whose shape does not match the
	// spec that built it: wrong group count, missing histograms or sums,
	// empty groups, mismatched arities.
	ErrBadCollection = core.ErrBadCollection
	// ErrBudgetExhausted marks a user whose privacy budget cannot cover a
	// requested spend (returned by the serving layer's accountant).
	ErrBudgetExhausted = privacy.ErrBudgetExceeded
)

// NewDefense builds a comparator defense by name ("ostrich", "trimming",
// "kmeans", "boxplot", "iforest") — the registry behind WithDefense.
var NewDefense = defense.New

// Defense is the single interface every comparator defense implements.
type Defense = defense.Defense

// ---------------------------------------------------------------------------
// Protocol-level API: the types protocol estimators share and the
// collection helpers. Tasks are described with a Spec and built by Build.
// ---------------------------------------------------------------------------

// Protocol types shared by every estimator (see internal/core).
type (
	// Collection holds per-group reports.
	Collection = core.Collection
	// Scheme selects EMF, EMF* or CEMF* estimation.
	Scheme = core.Scheme
	// WeightMode selects the inter-group aggregation weights.
	WeightMode = core.WeightMode
	// Group describes one protocol group.
	Group = core.Group
)

// Estimation schemes.
const (
	SchemeEMF      = core.SchemeEMF
	SchemeEMFStar  = core.SchemeEMFStar
	SchemeCEMFStar = core.SchemeCEMFStar
)

// Aggregation weight modes.
const (
	WeightsPaper   = core.WeightsPaper
	WeightsGeneral = core.WeightsGeneral
)

// Scheme and weight-mode parsing.
var (
	ParseScheme     = core.ParseScheme
	ParseWeightMode = core.ParseWeightMode
)

var (
	// PessimisticO computes Theorem 2's pessimistic mean initialization.
	PessimisticO = core.PessimisticO
	// CollectPM gathers a plain single-group PM collection (the input of
	// the Ostrich/Trimming/k-means baselines).
	CollectPM = core.CollectPM
)

// Threat models (see internal/attack).
type (
	// Adversary produces the colluding users' poison reports.
	Adversary = attack.Adversary
	// BBA is the Biased Byzantine Attack of Definition 4.
	BBA = attack.BBA
	// GBA is the two-sided General Byzantine Attack of Definition 2.
	GBA = attack.GBA
	// IMA is the input manipulation attack.
	IMA = attack.IMA
	// Evasion is the §V-D evasion attack on side probing.
	Evasion = attack.Evasion
	// Opportunistic is the §I threshold-hugging attack that defeats
	// trimming.
	Opportunistic = attack.Opportunistic
	// Range is a poison-value range expressed in fractions of C.
	Range = attack.Range
	// Dist is a poison-value distribution.
	Dist = attack.Dist
	// NoAttack is the empty adversary.
	NoAttack = attack.None
	// AttackSpec selects an adversary by name inside a Spec (the threat
	// side's mirror of DefenseSpec); NewAttack builds it.
	AttackSpec = attack.Spec
	// Targeted injects reports uniformly among chosen categories
	// (frequency task).
	Targeted = attack.Targeted
	// MaxGain concentrates all injected mass on the top categories
	// (frequency task).
	MaxGain = attack.MaxGain
	// DistPoison reshapes the reconstructed distribution with in-range
	// poison drawn from a chosen distribution (SW task).
	DistPoison = attack.DistPoison
	// SWTop is the Fig. 8 out-of-range attack on the SW output domain.
	SWTop = attack.SWTop
	// Dropout drops a fraction of the poison report slots (colluder
	// dropout).
	Dropout = attack.Dropout
	// Hetero varies the colluding fraction per protocol group.
	Hetero = attack.Hetero
	// Ramp escalates the active poison fraction across epochs.
	Ramp = attack.Ramp
	// Burst poisons in epoch-synchronized bursts.
	Burst = attack.Burst
	// CatAdvRunner is the categorical simulation entry point under a
	// registry adversary.
	CatAdvRunner = core.CatAdvRunner
)

// Poison distributions.
const (
	DistUniform  = attack.DistUniform
	DistGaussian = attack.DistGaussian
	DistBeta16   = attack.DistBeta16
	DistBeta61   = attack.DistBeta61
)

// Attack sides.
const (
	SideLeft  = attack.SideLeft
	SideRight = attack.SideRight
)

// The paper's standard poison ranges.
var (
	RangeHighQuarter = attack.RangeHighQuarter
	RangeHighHalf    = attack.RangeHighHalf
	RangeLowHalf     = attack.RangeLowHalf
	RangeFull        = attack.RangeFull

	// NewBBA builds a right-side biased attack.
	NewBBA = attack.NewBBA
	// ReduceToBBA constructively reduces a GBA to an equivalent BBA
	// (Theorem 1).
	ReduceToBBA = attack.ReduceToBBA

	// NewAttack builds an adversary from an AttackSpec — the registry
	// behind a Spec's attack section (mirroring NewDefense). Unknown names
	// fail with ErrUnknownAttack.
	NewAttack = attack.New
	// AttackNames lists the registered attack names.
	AttackNames = attack.Names
	// ParseAttackDist parses a poison-distribution name.
	ParseAttackDist = attack.ParseDist
	// ParseAttackSide parses a poisoned-side name.
	ParseAttackSide = attack.ParseSide
)

// ErrUnknownAttack marks an attack name outside AttackNames (wrapped into
// ErrBadSpec during spec validation).
var ErrUnknownAttack = attack.ErrUnknown

// Comparator defenses (see internal/defense). The function forms remain;
// NewDefense (or a Spec with WithDefense) selects the same defenses by
// name behind the Defense interface.
var (
	// Ostrich averages all reports, ignoring attackers.
	Ostrich = defense.Ostrich
	// Trimming removes a fraction from the poisoned side.
	Trimming = defense.Trimming
	// Boxplot filters outliers by the IQR rule.
	Boxplot = defense.Boxplot
)

// KMeansDefense is the subset-sampling defense of [38].
type KMeansDefense = defense.KMeansDefense

// IForestDefense filters reports by isolation-forest anomaly score.
type IForestDefense = defense.IForestDefense

// Datasets used in the paper's evaluation (see internal/dataset).
type (
	// Dataset is a numerical dataset normalized to [−1, 1].
	Dataset = dataset.Numeric
	// CategoricalDataset is a categorical dataset.
	CategoricalDataset = dataset.Categorical
)

// Dataset constructors.
var (
	Beta25     = dataset.Beta25
	Beta52     = dataset.Beta52
	Taxi       = dataset.Taxi
	Retirement = dataset.Retirement
	COVID19    = dataset.COVID19
	// DatasetByName builds a dataset from its paper name.
	DatasetByName = dataset.ByName
)
