package dap

// Testable examples of the top-level API — they run under `go test` and
// render as documentation in godoc. Each example is deterministic: fixed
// PCG seeds, fixed synthetic populations, rounded output.

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
)

// exampleValues builds a deterministic honest population: n values evenly
// spread over [lo, hi].
func exampleValues(n int, lo, hi float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return vals
}

// Example_buildFromSpec declares a task as JSON — the same document the
// CLIs (-spec file.json), the wire API and stream tenants consume — and
// builds its estimator.
func Example_buildFromSpec() {
	specJSON := []byte(`{
		"task": "mean",
		"scheme": "cemfstar",
		"eps": 1,
		"eps0": 0.25
	}`)
	sp, err := ParseSpec(specJSON)
	if err != nil {
		panic(err)
	}
	est, err := Build(sp)
	if err != nil {
		panic(err)
	}
	eff := est.Spec()
	fmt.Println("task:   ", eff.Task)
	fmt.Println("scheme: ", eff.Scheme)
	fmt.Println("groups: ", len(est.Groups()))
	// Unknown fields and invalid parameters fail loudly with ErrBadSpec.
	if _, err := ParseSpec([]byte(`{"task": "mean", "eps": -1}`)); err != nil {
		fmt.Println("bad spec rejected")
	}
	// Output:
	// task:    mean
	// scheme:  CEMF*
	// groups:  3
	// bad spec rejected
}

// Example_runUnderAttack simulates a full protocol round in which 25% of
// the users collude, drawn from the attack registry — the same "attack"
// section a JSON spec carries.
func Example_runUnderAttack() {
	sp := NewSpec(Mean(),
		WithBudget(1, 0.25),
		WithScheme(SchemeEMFStar),
		WithAttack(AttackSpec{Name: "bba", Range: "[C/2,C]", Dist: "uniform"}))
	est, err := Build(sp)
	if err != nil {
		panic(err)
	}
	adv, err := sp.Adversary()
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	res, err := est.(Runner).Run(r, exampleValues(8000, -0.5, 0.1), adv, 0.25)
	if err != nil {
		panic(err)
	}
	fmt.Println("attack:       ", adv.Name())
	fmt.Printf("probed side:   right=%v\n", res.PoisonedRight)
	fmt.Printf("probed gamma:  %.2f\n", res.Gamma)
	fmt.Printf("mean error:    %.2f\n", res.Mean-(-0.2))
	// Output:
	// attack:        BBA(right, [0.5,1]·C, Uniform)
	// probed side:   right=true
	// probed gamma:  0.27
	// mean error:    0.07
}

// Example_defenseComparison pits DAP against the trimming comparator on
// the same poisoned population: the opportunistic attacker hugs the
// trimming threshold, so trimming cuts away honest upper-tail reports
// while the poison survives, dragging its estimate far low; DAP's EMF
// reconstruction stays an order of magnitude closer.
func Example_defenseComparison() {
	values := exampleValues(8000, -0.5, 0.1)
	adv, err := NewAttack(AttackSpec{Name: "opportunistic", TrimFrac: 0.5})
	if err != nil {
		panic(err)
	}

	dapEst, err := Build(NewSpec(Mean(), WithBudget(1, 0.25)))
	if err != nil {
		panic(err)
	}
	res, err := dapEst.(Runner).Run(rand.New(rand.NewPCG(3, 4)), values, adv, 0.25)
	if err != nil {
		panic(err)
	}

	trimEst, err := Build(NewSpec(Mean(), WithBudget(1, 0.25),
		WithDefense(DefenseSpec{Name: "trimming"})))
	if err != nil {
		panic(err)
	}
	trim, err := trimEst.(Runner).Run(rand.New(rand.NewPCG(3, 4)), values, adv, 0.25)
	if err != nil {
		panic(err)
	}

	truth := -0.2
	fmt.Printf("dap error:      %.2f\n", res.Mean-truth)
	fmt.Printf("trimming error: %.2f\n", trim.Mean-truth)
	// Output:
	// dap error:      0.07
	// trimming error: -0.80
}

// Example_attackRegistry shows the declarative attack surface: JSON in,
// adversary out, including the composed streaming attackers.
func Example_attackRegistry() {
	var sp AttackSpec
	if err := json.Unmarshal([]byte(`{
		"name": "ramp",
		"frac0": 0.1,
		"epochs": 4,
		"inner": {"name": "bba", "dist": "gaussian"}
	}`), &sp); err != nil {
		panic(err)
	}
	adv, err := NewAttack(sp)
	if err != nil {
		panic(err)
	}
	fmt.Println(adv.Name())
	_, err = NewAttack(AttackSpec{Name: "quantum"})
	fmt.Println("unknown name rejected:", err != nil)
	// Output:
	// Ramp(0.1→1 over 4, BBA(right, [0.5,1]·C, Gaussian))
	// unknown name rejected: true
}
