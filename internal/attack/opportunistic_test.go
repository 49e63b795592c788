package attack

import (
	"math"
	"testing"

	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestOpportunisticStaysInsideTrimThreshold(t *testing.T) {
	r := rng.New(1)
	mech := pm.MustNew(1)
	env := EnvFor(mech, 0)

	// Honest population the attacker references.
	ref := make([]float64, 5000)
	for i := range ref {
		ref[i] = rng.Uniform(r, -0.8, 0)
	}
	// Margin covers the shift the attacker's own mass induces on the
	// mixed-collection quantile.
	adv := &Opportunistic{TrimFrac: 0.25, Margin: 0.12, Reference: ref}
	poison := adv.Poison(r, env, 3000)

	// Build the mixed collection the collector would see.
	reports := append([]float64(nil), poison...)
	for _, v := range ref {
		reports = append(reports, mech.Perturb(r, v))
	}
	// Trimming the top 25% must leave most poison in place: count poison
	// values below the trim threshold.
	cut := stats.Quantile(reports, 0.75)
	surviving := 0
	for _, p := range poison {
		if p <= cut {
			surviving++
		}
	}
	if frac := float64(surviving) / float64(len(poison)); frac < 0.8 {
		t.Fatalf("only %.0f%% of opportunistic poison survives trimming", frac*100)
	}
	// And the poison must still pull the mean upward.
	if stats.Mean(poison) <= stats.Mean(reports)-0.1 {
		t.Fatal("opportunistic poison is not biased upward")
	}
}

func TestOpportunisticDomainBounds(t *testing.T) {
	r := rng.New(2)
	env := EnvFor(pm.MustNew(0.5), 0)
	adv := &Opportunistic{TrimFrac: 0.5}
	for _, v := range adv.Poison(r, env, 500) {
		if env.Domain.Clamp(v) != v {
			t.Fatalf("poison %v outside domain", v)
		}
	}
}

func TestOpportunisticDefaults(t *testing.T) {
	r := rng.New(3)
	env := EnvFor(pm.MustNew(1), 0)
	// No reference, no margin: must still produce sane values.
	adv := &Opportunistic{TrimFrac: 0.9} // q clamps to 0.5
	vals := adv.Poison(r, env, 100)
	if len(vals) != 100 {
		t.Fatalf("len = %d", len(vals))
	}
	if adv.Name() == "" {
		t.Fatal("empty name")
	}
	_ = math.Abs
}
