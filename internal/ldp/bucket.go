package ldp

// Discretizer maps reported values to histogram bucket indices over a
// mechanism's output domain. It exists so that ingestion paths (the
// streaming collector's wire boundary) can validate and discretize a
// report without materializing a transform matrix, while producing the
// exact same indices as emf.(*Matrix).Counts: the bucket width, its
// reciprocal and the truncating index expression are computed identically,
// so a histogram accumulated report-by-report equals the batch histogram
// bucket-for-bucket.
type Discretizer struct {
	lo, hi float64
	inv    float64 // 1 / bucket width
	n      int
}

// NewDiscretizer builds a discretizer splitting dom into n equal buckets.
// It panics if n < 1 or the domain is empty (caller bugs, not data).
func NewDiscretizer(dom Domain, n int) Discretizer {
	if n < 1 {
		panic("ldp: discretizer needs at least one bucket")
	}
	w := dom.Width() / float64(n)
	if !(w > 0) {
		panic("ldp: discretizer over empty domain")
	}
	return Discretizer{lo: dom.Lo, hi: dom.Hi, inv: 1 / w, n: n}
}

// Index returns the bucket index of v and whether v is acceptable: NaN,
// ±Inf and out-of-domain values are rejected (ok = false) rather than
// clamped — at the wire boundary a report outside the mechanism's output
// domain is evidence of a broken or malicious client, not data. In-domain
// values use the same truncating expression as emf.(*Matrix).Counts, with
// the domain's upper endpoint landing in the last bucket.
func (d Discretizer) Index(v float64) (int, bool) {
	// v != v catches NaN; the closed-interval comparisons catch ±Inf and
	// out-of-domain values.
	if v != v || v < d.lo || v > d.hi {
		return 0, false
	}
	i := int((v - d.lo) * d.inv)
	if i >= d.n {
		i = d.n - 1
	}
	return i, true
}
