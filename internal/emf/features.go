package emf

// PoisonMean computes Eq. 11 for an EM result on the given matrix: the
// mean M_α = Σŷ_jν_j / Σŷ_j of the reconstructed poison histogram ŷ with
// ν the poison bucket medians (§IV-C); 0 when no poison mass was
// reconstructed.
func PoisonMean(m *Matrix, res *Result) float64 {
	var num, den float64
	for _, j := range res.Poison {
		num += res.Y[j] * m.OutCenter(j)
		den += res.Y[j]
	}
	if den == 0 {
		return 0
	}
	return num / den
}
