package emf

import "math"

// bandRep is the structured representation of a transform matrix whose
// columns are "two-level": a constant low tail plus a contiguous
// high-probability band (the shape PM, SW and k-RR all produce — see
// pm.Mechanism.Band). Entry (i,k) decomposes as base[k] + delta(i,k) where
// delta is nonzero only inside a contiguous per-row column window
// [lo,hi).
//
// Two refinements stack on top of that decomposition:
//
//  1. For mechanisms that perturb by sampling uniformly from a band, the
//     interior of every window carries one constant delta0 — only the two
//     window-end buckets, where the band partially overlaps a bucket, differ
//     (a full-overlap bucket integrates to the same value in every row).
//     When that holds ("regular"), the E-step needs only prefix sums: each
//     denominator is O(1) — two edge terms plus delta0·(X[hi−1]−X[lo+1]) —
//     and the Px accumulation becomes a difference array, making one EM
//     iteration O(D + D′) regardless of band width.
//  2. Otherwise the deltas are kept as a ragged row-major array ("vals")
//     and the E-step is O(band width) per row — still far below the dense
//     O(D) when the band is narrow.
type bandRep struct {
	base []float64 // per-column tail value, len D
	lo   []int     // first band column of each row, len DPrime
	hi   []int     // one past the last band column, len DPrime (hi==lo: empty)

	// Regular (constant-interior) representation.
	regular        bool
	delta0         float64   // interior delta shared by all rows
	edgeLo, edgeHi []float64 // deltas at columns lo and hi−1 (0 for empty rows)

	// Ragged fallback: deltas for row i are vals[off[i]:off[i+1]].
	off  []int
	vals []float64
}

// bandSnapTol is the relative tolerance under which an entry is considered
// part of a column's constant tail (or a window interior entry equal to
// delta0). Matching entries are snapped to the exact shared value so the
// structured representation reconstructs P without error; the snap itself
// perturbs an entry by at most this relative amount.
const bandSnapTol = 1e-12

// bandMaxFill is the band-volume fraction above which the ragged banded
// representation stops paying for itself and the dense path is kept (the
// regular representation is O(1) per row and has no such threshold).
const bandMaxFill = 0.85

// detectBands attempts the two-level decomposition of m.P, snapping
// tail-level (and, when regular, interior-level) entries to their exact
// shared values. On success m.band is set and the banded E-step becomes
// available; on failure m.band stays nil and the dense path is used.
func (m *Matrix) detectBands() {
	d, dp := m.D, m.DPrime
	base := make([]float64, d)
	for k := 0; k < d; k++ {
		min := math.Inf(1)
		for i := 0; i < dp; i++ {
			if v := m.P[i*d+k]; v < min {
				min = v
			}
		}
		base[k] = min
		// Snap tail entries to the exact baseline so delta == 0 outside the
		// band even when numerical integration left last-ulp jitter.
		snap := min + min*bandSnapTol
		for i := 0; i < dp; i++ {
			if m.P[i*d+k] <= snap {
				m.P[i*d+k] = min
			}
		}
	}
	lo := make([]int, dp)
	hi := make([]int, dp)
	volume := 0
	for i := 0; i < dp; i++ {
		row := m.P[i*d : i*d+d]
		first, last := -1, -1
		for k, v := range row {
			if v != base[k] {
				if first < 0 {
					first = k
				}
				last = k
			}
		}
		if first < 0 {
			first, last = 0, -1 // empty band row
		}
		lo[i], hi[i] = first, last+1
		volume += last - first + 1
	}
	b := &bandRep{base: base, lo: lo, hi: hi}

	// Try the regular (constant-interior) representation first: pick the
	// interior delta from the first wide-enough row, then verify every
	// interior entry matches it within bandSnapTol.
	delta0 := 0.0
	for i := 0; i < dp && delta0 == 0; i++ {
		if hi[i]-lo[i] >= 3 {
			mid := (lo[i] + hi[i]) / 2
			delta0 = m.P[i*d+mid] - base[mid]
		}
	}
	regular := true
	for i := 0; i < dp && regular; i++ {
		for k := lo[i] + 1; k < hi[i]-1; k++ {
			delta := m.P[i*d+k] - base[k]
			if math.Abs(delta-delta0) > bandSnapTol*delta0 {
				regular = false
				break
			}
		}
	}
	if regular {
		b.regular = true
		b.delta0 = delta0
		b.edgeLo = make([]float64, dp)
		b.edgeHi = make([]float64, dp)
		for i := 0; i < dp; i++ {
			if hi[i] > lo[i] {
				b.edgeLo[i] = m.P[i*d+lo[i]] - base[lo[i]]
				if hi[i]-lo[i] > 1 {
					b.edgeHi[i] = m.P[i*d+hi[i]-1] - base[hi[i]-1]
				}
			}
			// Snap interior entries so the dense path sees exactly the
			// values the structured path reconstructs.
			for k := lo[i] + 1; k < hi[i]-1; k++ {
				m.P[i*d+k] = base[k] + delta0
			}
		}
		m.band = b
		return
	}

	// Ragged fallback, worthwhile only while the band is actually sparse.
	if float64(volume) > bandMaxFill*float64(d*dp) {
		return
	}
	b.off = make([]int, dp+1)
	b.vals = make([]float64, 0, volume)
	for i := 0; i < dp; i++ {
		row := m.P[i*d : i*d+d]
		b.off[i+1] = b.off[i] + hi[i] - lo[i]
		for k := lo[i]; k < hi[i]; k++ {
			b.vals = append(b.vals, row[k]-base[k])
		}
	}
	m.band = b
}

// Banded reports whether the matrix carries the structured band
// representation (and the E-step will use the O(band) fast path).
func (m *Matrix) Banded() bool { return m.band != nil }

// fastLog is a table-accelerated natural logarithm for strictly positive,
// finite, normal inputs (the E-step clamps its denominators to ≥1e-300).
// The mantissa's top logTabBits select a precomputed (1/m₀, ln m₀) pair,
// leaving a residual r = m/m₀ − 1 with |r| ≤ 2⁻⁹ that a short log1p
// polynomial absorbs; the truncation error is below 1e-14 absolute, far
// inside the EM termination tolerance (≥0.01·e^ε) the log-likelihood
// feeds. Unlike math.Log (and the atanh reduction) there is no division on
// the hot path, and the 4KB table stays L1-resident; it measures ~3×
// faster, which matters because the ll pass runs once per output bucket
// per EM iteration.
const logTabBits = 8

var logTab [1 << logTabBits]struct{ inv, log float64 }

func init() {
	for i := range logTab {
		m0 := 1 + (float64(i)+0.5)/float64(1<<logTabBits) // bin midpoint in [1,2)
		logTab[i].inv = 1 / m0
		logTab[i].log = math.Log(m0)
	}
}

const ln2 = 6.93147180559945286227e-01

// NOTE: the E-step loops in emf.go inline this body by hand (it exceeds
// the compiler's inline budget and the call overhead is measurable there);
// keep the copies in eStepDense/eStepBanded in sync with any change here.
func fastLog(x float64) float64 {
	bits := math.Float64bits(x)
	e := int((bits>>52)&0x7ff) - 1023
	m := math.Float64frombits((bits & 0x000fffffffffffff) | 0x3ff0000000000000) // [1,2)
	t := &logTab[(bits>>(52-logTabBits))&(1<<logTabBits-1)]
	r := m*t.inv - 1
	// log1p(r) for |r| ≤ 2⁻⁹: the omitted r⁵/5 term is below 6e-15.
	p := r * (1 - r*(0.5-r*(1.0/3-r*0.25)))
	return float64(e)*ln2 + (t.log + p)
}
