package emf

// RunConcentrated executes CEMF* (EMF* with concentration, Theorem 5):
// starting from a base EMF estimate of the poison histogram, it suppresses
// the poison buckets whose estimated frequency falls below
// threshold = factor·γ/|P| (the buckets "unchosen" by the Byzantine
// users), then re-runs the constrained EM on the surviving buckets only.
//
// base must be an EMF (or EMF*) result computed on the same matrix, counts
// and poison set; gamma is the Byzantine proportion imposed on the
// constrained re-run (the paper feeds the γ̂ probed at the smallest
// budget). The paper's experiments use factor = 0.5 (§VI-C).
func RunConcentrated(m *Matrix, counts []float64, base *Result, gamma, factor float64, cfg Config) (*Result, error) {
	// The base fit already solved the same deconvolution on the same
	// counts; seed the constrained re-run from it (unless the caller warm
	// started with something else) — the re-run then only re-balances the
	// surviving poison buckets instead of re-deriving x̂ from uniform.
	if cfg.Init == nil {
		cfg.Init = base
	}
	if len(base.Poison) == 0 {
		// Nothing to suppress; degenerate to EMF*.
		return RunConstrained(m, counts, base.Poison, gamma, cfg)
	}
	threshold := factor * gamma / float64(len(base.Poison))
	kept := make([]int, 0, len(base.Poison))
	for _, j := range base.Poison {
		if base.Y[j] >= threshold {
			kept = append(kept, j)
		}
	}
	if len(kept) == 0 {
		// Everything suppressed: treat the collection as poison-free.
		return RunConstrained(m, counts, nil, 0, cfg)
	}
	return RunConstrained(m, counts, kept, gamma, cfg)
}
