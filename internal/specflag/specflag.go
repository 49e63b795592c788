// Package specflag binds the task-spec API (core.Spec) to command-line
// flags, one implementation shared by every CLI: a -spec file.json flag
// loads a JSON task spec, and the protocol flags — registered here with
// one canonical name set — act as overrides for fields set explicitly on
// the command line. Before this package, cmd/dapcollect and
// cmd/daploadgen each re-encoded the tenant parameters in their own flag
// structs; both now resolve through the same Spec.
package specflag

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
)

// Flags binds a task spec to a flag set. Construct with New before
// flag.Parse; call Resolve after.
type Flags struct {
	fs      *flag.FlagSet
	def     core.Spec
	path    string
	attackF string
	// apply holds, per flag name, the function that copies the flag's
	// parsed value onto a spec — the one place a flag is tied to its
	// field. Resolve runs the explicitly-set ones.
	apply map[string]func(*core.Spec) error
}

// bind ties flag name, parsed into v, to the spec field set assigns.
func bind[T any](f *Flags, name string, v *T, set func(*core.Spec, T)) {
	f.apply[name] = func(sp *core.Spec) error {
		set(sp, *v)
		return nil
	}
}

// serve returns sp's Serve section, creating it on first use.
func serve(sp *core.Spec) *core.ServeSpec {
	if sp.Serve == nil {
		sp.Serve = &core.ServeSpec{}
	}
	return sp.Serve
}

// New registers -spec and the task-spec override flags on fs with
// defaults taken from def (normalized). Serving-layer flags (buckets,
// expected-users, shards, window, span, epoch) default to def's Serve
// section when present.
func New(fs *flag.FlagSet, def core.Spec) *Flags {
	// Flag defaults show def's effective (normalized) values. The fields
	// Normalize derives from the task and ε (mechanism, baseline split)
	// have no flag and stay as given, so they follow a -task or -eps
	// override when Resolve normalizes the result.
	given := def
	def = def.Normalize()
	def.Mechanism, def.EpsAlpha, def.EpsBeta = given.Mechanism, given.EpsAlpha, given.EpsBeta
	f := &Flags{fs: fs, def: def, apply: make(map[string]func(*core.Spec) error)}
	fs.StringVar(&f.path, "spec", "", "JSON task spec file; explicit flags below override its fields")
	task := fs.String("task", string(def.Task), "task kind: mean, distribution, frequency, variance, baseline")
	fs.StringVar(task, "kind", string(def.Task), "alias of -task")
	setTask := func(sp *core.Spec, v string) {
		task, err := core.ParseTask(v)
		if err != nil {
			task = core.TaskKind(v) // leave it for Validate to reject
		}
		sp.Task = task
	}
	bind(f, "task", task, setTask)
	bind(f, "kind", task, setTask)
	bind(f, "eps", fs.Float64("eps", def.Eps, "total privacy budget ε"),
		func(sp *core.Spec, v float64) { sp.Eps = v })
	bind(f, "eps0", fs.Float64("eps0", def.Eps0, "minimum group budget ε0"),
		func(sp *core.Spec, v float64) { sp.Eps0 = v })
	bind(f, "scheme", fs.String("scheme", def.Scheme, "estimation scheme: emf, emfstar, cemfstar"),
		func(sp *core.Spec, v string) { sp.Scheme = v })
	bind(f, "weights", fs.String("weights", def.Weights, "aggregation weights: paper, general"),
		func(sp *core.Spec, v string) { sp.Weights = v })
	bind(f, "k", fs.Int("k", def.K, "category count (task frequency)"),
		func(sp *core.Spec, v int) { sp.K = v })
	bind(f, "oprime", fs.Float64("oprime", def.OPrime, "fixed pessimistic mean O′"),
		func(sp *core.Spec, v float64) { sp.OPrime = v })
	bind(f, "auto-oprime", fs.Bool("auto-oprime", def.AutoOPrime, "derive O′ per Theorem 2"),
		func(sp *core.Spec, v bool) { sp.AutoOPrime = v })
	bind(f, "gamma-sup", fs.Float64("gamma-sup", def.GammaSup, "Byzantine-proportion bound γsup for Theorem 2 (0 = 1/2)"),
		func(sp *core.Spec, v float64) { sp.GammaSup = v })
	bind(f, "suppress", fs.Float64("suppress", def.SuppressFactor, "CEMF* concentration threshold factor (0 = 0.5)"),
		func(sp *core.Spec, v float64) { sp.SuppressFactor = v })
	bind(f, "emf-maxiter", fs.Int("emf-maxiter", def.EMFMaxIter, "EM iteration cap (0 = engine default)"),
		func(sp *core.Spec, v int) { sp.EMFMaxIter = v })
	bind(f, "trim-frac", fs.Float64("trim-frac", def.TrimFrac, "SW pessimistic-O′ trim fraction (task distribution)"),
		func(sp *core.Spec, v float64) { sp.TrimFrac = v })
	// The flag default can only carry the attack's name; an untouched flag
	// leaves def's (or the file's) full attack section in place.
	fs.StringVar(&f.attackF, "attack", attackDefault(def),
		"simulated adversary: a registry name (see attack.Names), inline JSON {\"name\":...}, or @file.json; \"none\" disables the attack")
	f.apply["attack"] = func(sp *core.Spec) (err error) {
		sp.Attack, err = ParseAttack(f.attackF)
		return err
	}

	sv := core.ServeSpec{}
	if def.Serve != nil {
		sv = *def.Serve
	}
	bind(f, "buckets", fs.Int("buckets", sv.Buckets, "fixed per-group histogram resolution d′ (0 = derive from -expected-users)"),
		func(sp *core.Spec, v int) { serve(sp).Buckets = v })
	bind(f, "expected-users", fs.Int("expected-users", sv.ExpectedUsers, "expected user population for deriving d′ (0 = engine default)"),
		func(sp *core.Spec, v int) { serve(sp).ExpectedUsers = v })
	bind(f, "shards", fs.Int("shards", sv.Shards, "lock stripes per group histogram (0 = engine default)"),
		func(sp *core.Spec, v int) { serve(sp).Shards = v })
	bind(f, "window", fs.String("window", sv.Window, "epoch window mode (tumbling, sliding)"),
		func(sp *core.Spec, v string) { serve(sp).Window = v })
	bind(f, "span", fs.Int("span", sv.Span, "sliding window span in epochs"),
		func(sp *core.Spec, v int) { serve(sp).Span = v })
	bind(f, "epoch", fs.Duration("epoch", time.Duration(sv.EpochMs)*time.Millisecond, "epoch length for automatic rotation (0 = manual)"),
		func(sp *core.Spec, v time.Duration) { serve(sp).EpochMs = v.Milliseconds() })
	return f
}

// Path returns the -spec file path ("" when none was given).
func (f *Flags) Path() string { return f.path }

// attackDefault renders a default spec's attack section as the -attack
// flag default (its registry name, or "" when the spec carries none).
func attackDefault(def core.Spec) string {
	if def.Attack == nil {
		return ""
	}
	return def.Attack.Name
}

// ParseAttack resolves a -attack flag value into an attack spec: "" means
// unset (nil), "@path" loads a JSON attack spec file, a leading "{" parses
// inline JSON, anything else is a registry name with default parameters
// ("none" included — pass it to clear a spec file's attack section).
func ParseAttack(s string) (*attack.Spec, error) {
	switch {
	case s == "":
		return nil, nil
	case strings.HasPrefix(s, "@"):
		data, err := os.ReadFile(s[1:])
		if err != nil {
			return nil, err
		}
		return decodeAttack(data)
	case strings.HasPrefix(s, "{"):
		return decodeAttack([]byte(s))
	default:
		return &attack.Spec{Name: s}, nil
	}
}

// decodeAttack parses a JSON attack spec strictly, mirroring
// core.ParseSpec's unknown-field rejection.
func decodeAttack(data []byte) (*attack.Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp attack.Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%w: attack: %v", core.ErrBadSpec, err)
	}
	return &sp, nil
}

// Attack resolves the -attack flag value alone (nil when the flag was
// left empty) — for CLIs that drive an adversary without resolving a full
// task spec, e.g. daploadgen against an external collector.
func (f *Flags) Attack() (*attack.Spec, error) { return ParseAttack(f.attackF) }

// Resolve returns the effective spec: the default spec New was given —
// or, with -spec, the file's spec — with every explicitly-set flag applied
// on top. The result is validated.
func (f *Flags) Resolve() (core.Spec, error) {
	sp := f.def
	if f.path != "" {
		var err error
		if sp, err = core.LoadSpec(f.path); err != nil {
			return core.Spec{}, err
		}
	} else if sp.Serve != nil {
		sv := *sp.Serve // flags write through the pointer; keep def intact
		sp.Serve = &sv
	}
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		if set := f.apply[fl.Name]; set != nil && err == nil {
			err = set(&sp)
		}
	})
	if err != nil {
		return core.Spec{}, err
	}
	if err := sp.Validate(); err != nil {
		return core.Spec{}, err
	}
	return sp.Normalize(), nil
}
