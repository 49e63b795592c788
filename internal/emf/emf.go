package emf

import (
	"errors"
	"math"
	"sync"
)

// Config controls the EM iterations shared by EMF, EMF* and CEMF*.
type Config struct {
	// Tol is the absolute log-likelihood change below which the iteration
	// stops: |l(F)_t − l(F)_{t+1}| < Tol. The paper sets Tol = 0.01·e^ε
	// (§VI-A); 0 selects DefaultTol.
	Tol float64
	// MaxIter caps the EM iterations; 0 selects DefaultMaxIter.
	MaxIter int
	// Smooth enables the EMS smoothing step on the normal-user histogram
	// after each M-step (used with the Square Wave mechanism, per Li et
	// al.'s EMS and the paper's §V-D extension).
	Smooth bool
	// Dense forces the O(D′×D) dense E-step even when the matrix carries a
	// banded representation — for tests and benchmarks comparing the two
	// paths. Production callers leave it false.
	Dense bool
	// Accelerate enables SQUAREM extrapolation over the EM map (squarem.go):
	// two base EM steps, a steplength from the step differences, one
	// extrapolated jump, and a monotonicity safeguard that falls back to the
	// plain step whenever the jump lowers the log-likelihood. The fixed
	// point and the Tol termination rule are unchanged; only the path to
	// them shortens, so accelerated and plain runs agree within Tol-scaled
	// bounds (tolerance-equivalent, not bit-identical).
	Accelerate bool
	// Init optionally warm-starts the iteration from a previous fit instead
	// of the uniform 1/(d+|P|) initialization of Algorithm 2. The fit must
	// come from the same bucket layout (len(X) = D, len(Y) = D′); a
	// mismatched Init is silently ignored and the run starts cold. Warm
	// entries are floored at a tiny mass so EM's multiplicative update can
	// move support the previous fit had zeroed out.
	Init *Result
}

// Default iteration controls.
const (
	DefaultTol     = 1e-3
	DefaultMaxIter = 500
)

func (c Config) tol() float64 {
	if c.Tol > 0 {
		return c.Tol
	}
	return DefaultTol
}

func (c Config) maxIter() int {
	if c.MaxIter > 0 {
		return c.MaxIter
	}
	return DefaultMaxIter
}

// PaperTol returns the paper's termination threshold 0.01·e^ε for a group
// with budget eps.
func PaperTol(eps float64) float64 { return 0.01 * math.Exp(eps) }

// Result holds the reconstructed frequency histograms of one EM run.
type Result struct {
	// X is the estimated normal-user frequency histogram over the D input
	// buckets. Together with Y it sums to one (EMF) or to the imposed
	// (1−γ, γ) split (EMF*/CEMF*).
	X []float64
	// Y is the estimated poison-value frequency histogram indexed by
	// output bucket; entries outside the poison set are zero.
	Y []float64
	// Poison is the output-bucket index set used as poison components.
	Poison []int
	// Iters is the number of EM iterations performed.
	Iters int
	// LogLik is the final log-likelihood l(F).
	LogLik float64
	// Converged reports whether the tolerance was met before MaxIter.
	Converged bool
	// Restarts counts SQUAREM extrapolations rejected by the monotonicity
	// safeguard (always 0 for plain runs).
	Restarts int
	// Warm reports whether the run was seeded from Config.Init.
	Warm bool
}

// Gamma returns the estimated Byzantine proportion γ̂ = Σ_j ŷ_j (Eq. 9).
func (r *Result) Gamma() float64 {
	var s float64
	for _, y := range r.Y {
		s += y
	}
	return s
}

// state carries the EM loop buffers. States are pooled: repeated
// Estimate/trial calls reuse the five slices instead of reallocating them
// per run, which matters when the Monte-Carlo harness fires thousands of
// EM fits.
type state struct {
	m        *Matrix
	counts   []float64
	poison   []int
	isPoison []bool // indexed by output bucket
	x        []float64
	y        []float64 // indexed by output bucket; zero outside poison
	px       []float64
	py       []float64
	// Banded E-step scratch: the rows with nonzero observed count (the
	// only ones that contribute), the poison subset of those, and the
	// per-row denominators/weights of the current iteration. Splitting the
	// sweep into short batched passes over these lets the per-row
	// divisions and logarithms pipeline instead of serializing on each
	// row's dependency chain.
	rows []int
	// xpre and diff are scratch for the regular banded E-step: prefix sums
	// of x̂ and the Px difference array (both length D+1, L1-resident).
	xpre []float64
	diff []float64
	// sumPx and sumPy are Σ Px and Σ Py of the latest E-step, accumulated
	// during the sweep so the M-step normalization needs no extra pass.
	sumPx, sumPy float64
	// SQUAREM scratch (squarem.go): the two anchor iterates θ₀, θ₁ of the
	// current acceleration cycle and the plain double-step iterate θ₂ kept
	// for the monotonicity fallback. Pooled with the rest of the state so
	// accelerated runs stay allocation-free per iteration.
	sx0, sx1, sx2 []float64
	sy0, sy1, sy2 []float64
}

var statePool = sync.Pool{New: func() any { return new(state) }}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func newState(m *Matrix, counts []float64, poison []int, cfg Config) (*state, bool, error) {
	if len(counts) != m.DPrime {
		return nil, false, errors.New("emf: counts length must equal DPrime")
	}
	if err := m.validatePoison(poison); err != nil {
		return nil, false, err
	}
	s := statePool.Get().(*state)
	s.m, s.counts, s.poison = m, counts, poison
	s.isPoison = growB(s.isPoison, m.DPrime)
	s.x = growF(s.x, m.D)
	s.y = growF(s.y, m.DPrime)
	s.px = growF(s.px, m.D)
	s.py = growF(s.py, m.DPrime)
	s.xpre = growF(s.xpre, m.D+1)
	s.diff = growF(s.diff, m.D+1)
	if cfg.Accelerate {
		s.sx0 = growF(s.sx0, m.D)
		s.sx1 = growF(s.sx1, m.D)
		s.sx2 = growF(s.sx2, m.D)
		s.sy0 = growF(s.sy0, m.DPrime)
		s.sy1 = growF(s.sy1, m.DPrime)
		s.sy2 = growF(s.sy2, m.DPrime)
	}
	for i := range s.isPoison {
		s.isPoison[i] = false
		s.y[i] = 0
		s.py[i] = 0
	}
	// Initialization of Algorithm 2: x̂_k = ŷ_j = 1/(d + |P|).
	init := 1.0 / float64(m.D+len(poison))
	for k := range s.x {
		s.x[k] = init
	}
	for _, j := range poison {
		s.isPoison[j] = true
		s.y[j] = init
	}
	warm := s.warmStart(cfg.Init, poison)
	s.rows = s.rows[:0]
	for i, c := range counts {
		if c > 0 {
			s.rows = append(s.rows, i)
		}
	}
	return s, warm, nil
}

// warmStart overwrites the uniform initialization with a previous fit when
// its bucket layout matches. Entries are floored at a tiny positive mass
// (exact zeros are fixed points of EM's multiplicative update and could
// never be resurrected on new data) and the whole vector is renormalized
// to unit mass. Reports whether the warm start was applied.
func (s *state) warmStart(init *Result, poison []int) bool {
	if init == nil || len(init.X) != s.m.D || len(init.Y) != s.m.DPrime {
		return false
	}
	// 0.1% of the uniform mass: small enough not to disturb a good seed,
	// large enough that EM's multiplicative update can regrow a bucket the
	// seed had emptied within a handful of iterations.
	floor := 1e-3 / float64(s.m.D+len(poison))
	var total float64
	for k, v := range init.X {
		if !(v > floor) { // also catches NaN
			v = floor
		}
		s.x[k] = v
		total += v
	}
	for _, j := range poison {
		v := init.Y[j]
		if !(v > floor) {
			v = floor
		}
		s.y[j] = v
		total += v
	}
	if total <= 0 {
		return false
	}
	inv := 1 / total
	for k := range s.x {
		s.x[k] *= inv
	}
	for _, j := range poison {
		s.y[j] *= inv
	}
	return true
}

// release returns the buffers to the pool; the state must not be used
// afterwards. Results hand out copies, so pooling is invisible to callers.
func (s *state) release() {
	s.m, s.counts, s.poison = nil, nil, nil
	statePool.Put(s)
}

// eStep computes the expected component masses Px, Py and returns the
// current log-likelihood l(F) = Σ_i c_i ln D_i, dispatching to the banded
// fast path when the matrix carries one.
func (s *state) eStep(dense bool) float64 {
	if !dense && s.m.band != nil {
		if s.m.band.regular {
			return s.eStepBandedRegular()
		}
		return s.eStepBanded()
	}
	return s.eStepDense()
}

// eStepDense is the reference O(D′×D) E-step, fused into a single sweep:
// each row's denominator, log-likelihood contribution, Px accumulation and
// Py update happen while the row is hot in cache. Rows with zero observed
// count contribute nothing and are skipped.
func (s *state) eStepDense() float64 {
	m := s.m
	d := m.D
	px := s.px
	for k := range px {
		px[k] = 0
	}
	var ll, sumPy float64
	for i := 0; i < m.DPrime; i++ {
		c := s.counts[i]
		if c <= 0 {
			continue
		}
		row := m.P[i*d : i*d+d]
		den := s.y[i] // zero outside the poison set
		for k, p := range row {
			den += p * s.x[k]
		}
		if den < 1e-300 {
			den = 1e-300
		}
		// Manually inlined fastLog(den) (see banded.go): the call itself
		// costs as much as the table lookup at this call frequency.
		bits := math.Float64bits(den)
		lt := &logTab[(bits>>(52-logTabBits))&(1<<logTabBits-1)]
		lr := math.Float64frombits((bits&0x000fffffffffffff)|0x3ff0000000000000)*lt.inv - 1
		ll += c * (float64(int(bits>>52)-1023)*ln2 + (lt.log + lr*(1-lr*(0.5-lr*(1.0/3-lr*0.25)))))
		w := c / den
		for k, p := range row {
			px[k] += w * p
		}
		if s.isPoison[i] {
			py := s.y[i] * w
			s.py[i] = py
			sumPy += py
		}
	}
	var sumPx float64
	for k := 0; k < d; k++ {
		v := px[k] * s.x[k]
		px[k] = v
		sumPx += v
	}
	s.sumPx, s.sumPy = sumPx, sumPy
	return ll
}

// eStepBanded exploits the two-level column structure: with
// P[i,k] = base[k] + delta(i,k), each denominator is the running baseline
// sum S = Σ base[k]·x̂_k plus an O(band) correction, and the Px accumulation
// likewise splits into base[k]·Σ w_i (one scalar per sweep) plus banded
// corrections — O(band + D + D′) per iteration instead of O(D·D′). The
// sweep is organized as short batched passes over the active rows so that
// the per-row division and logarithm issue back-to-back (throughput-bound)
// instead of serializing on each row's dependency chain; all scratch
// arrays are ≤ D′ floats and stay L1-resident.
func (s *state) eStepBanded() float64 {
	m := s.m
	b := m.band
	d := m.D
	var S float64
	for k, bk := range b.base {
		S += bk * s.x[k]
	}
	px := s.px
	for k := range px {
		px[k] = 0
	}
	var ll, T, sumPy float64
	for _, i := range s.rows {
		c := s.counts[i]
		vals := b.vals[b.off[i]:b.off[i+1]]
		lo := b.lo[i]
		xs := s.x[lo : lo+len(vals)]
		// Specialized dot product: bands of one or two columns (the common
		// case at small ε, where D = d′/C is tiny) skip the loop entirely;
		// longer bands use two accumulators so the multiplies overlap
		// instead of serializing on one add chain. Band widths are nearly
		// constant within a matrix, so the switch predicts perfectly.
		var dot float64
		switch len(vals) {
		case 1:
			dot = vals[0] * xs[0]
		case 2:
			dot = vals[0]*xs[0] + vals[1]*xs[1]
		default:
			var d0, d1 float64
			n2 := len(vals) &^ 1
			for j := 0; j < n2; j += 2 {
				d0 += vals[j] * xs[j]
				d1 += vals[j+1] * xs[j+1]
			}
			if n2 < len(vals) {
				d0 += vals[n2] * xs[n2]
			}
			dot = d0 + d1
		}
		den := s.y[i] + S + dot
		if den < 1e-300 {
			den = 1e-300
		}
		// Manually inlined fastLog(den) (see banded.go: the call overhead
		// alone is measurable at this frequency).
		bits := math.Float64bits(den)
		lt := &logTab[(bits>>(52-logTabBits))&(1<<logTabBits-1)]
		lr := math.Float64frombits((bits&0x000fffffffffffff)|0x3ff0000000000000)*lt.inv - 1
		ll += c * (float64(int(bits>>52)-1023)*ln2 + (lt.log + lr*(1-lr*(0.5-lr*(1.0/3-lr*0.25)))))
		w := c / den
		T += w
		pxs := px[lo : lo+len(vals)]
		for j, v := range vals {
			pxs[j] += w * v
		}
		if s.isPoison[i] {
			py := s.y[i] * w
			s.py[i] = py
			sumPy += py
		}
	}
	var sumPx float64
	for k := 0; k < d; k++ {
		v := s.x[k] * (b.base[k]*T + px[k])
		px[k] = v
		sumPx += v
	}
	s.sumPx, s.sumPy = sumPx, sumPy
	return ll
}

// eStepBandedRegular is the O(D + D′) E-step for matrices whose band
// interior is one constant delta0 (PM, SW, k-RR — see bandRep). Each
// denominator needs only the two window-edge terms plus
// delta0·(X[hi−1] − X[lo+1]) over the prefix sums X of x̂, and the Px
// scatter becomes two edge writes plus a difference-array update, so one
// EM iteration costs O(D + D′) independent of the band width.
func (s *state) eStepBandedRegular() float64 {
	m := s.m
	b := m.band
	d := m.D
	x := s.x
	var S float64
	for k, bk := range b.base {
		S += bk * x[k]
	}
	X := s.xpre
	X[0] = 0
	for k := 0; k < d; k++ {
		X[k+1] = X[k] + x[k]
	}
	px := s.px
	diff := s.diff
	for k := range px {
		px[k] = 0
	}
	for k := range diff {
		diff[k] = 0
	}
	d0 := b.delta0
	var ll, T, sumPy float64
	for _, i := range s.rows {
		c := s.counts[i]
		lo, hi := b.lo[i], b.hi[i]
		den := s.y[i] + S
		switch hi - lo {
		case 0:
		case 1:
			den += b.edgeLo[i] * x[lo]
		case 2:
			den += b.edgeLo[i]*x[lo] + b.edgeHi[i]*x[hi-1]
		default:
			den += b.edgeLo[i]*x[lo] + b.edgeHi[i]*x[hi-1] + d0*(X[hi-1]-X[lo+1])
		}
		if den < 1e-300 {
			den = 1e-300
		}
		// Manually inlined fastLog(den) (see banded.go: the call overhead
		// alone is measurable at this frequency).
		bits := math.Float64bits(den)
		lt := &logTab[(bits>>(52-logTabBits))&(1<<logTabBits-1)]
		lr := math.Float64frombits((bits&0x000fffffffffffff)|0x3ff0000000000000)*lt.inv - 1
		ll += c * (float64(int(bits>>52)-1023)*ln2 + (lt.log + lr*(1-lr*(0.5-lr*(1.0/3-lr*0.25)))))
		w := c / den
		T += w
		switch hi - lo {
		case 0:
		case 1:
			px[lo] += b.edgeLo[i] * w
		case 2:
			px[lo] += b.edgeLo[i] * w
			px[hi-1] += b.edgeHi[i] * w
		default:
			px[lo] += b.edgeLo[i] * w
			px[hi-1] += b.edgeHi[i] * w
			dw := d0 * w
			diff[lo+1] += dw
			diff[hi-1] -= dw
		}
		if s.isPoison[i] {
			py := s.y[i] * w
			s.py[i] = py
			sumPy += py
		}
	}
	var run, sumPx float64
	for k := 0; k < d; k++ {
		run += diff[k]
		v := x[k] * (b.base[k]*T + px[k] + run)
		px[k] = v
		sumPx += v
	}
	s.sumPx, s.sumPy = sumPx, sumPy
	return ll
}

// mStepEMF is Algorithm 2's M-step: joint normalization of Px and Py.
// One reciprocal replaces the D+|P| divisions of the literal form — at
// ~10⁷ normalizations per harness run the divider latency is visible.
func (s *state) mStepEMF() {
	total := s.sumPx + s.sumPy
	if total <= 0 {
		return
	}
	inv := 1 / total
	for k := range s.x {
		s.x[k] = s.px[k] * inv
	}
	for _, j := range s.poison {
		s.y[j] = s.py[j] * inv
	}
}

// mStepConstrained is Algorithm 4's M-step (Theorem 4): x̂ renormalized to
// mass 1−γ and ŷ to mass γ.
func (s *state) mStepConstrained(gamma float64) {
	sx, sy := s.sumPx, s.sumPy
	if sx > 0 {
		scale := (1 - gamma) / sx
		for k := range s.x {
			s.x[k] = scale * s.px[k]
		}
	}
	if sy > 0 {
		scale := gamma / sy
		for _, j := range s.poison {
			s.y[j] = scale * s.py[j]
		}
	} else {
		// No observed mass in poison buckets: spread γ uniformly so the
		// constraint Σŷ = γ still holds.
		for _, j := range s.poison {
			s.y[j] = gamma / float64(len(s.poison))
		}
	}
}

// smoothX applies the EMS binomial kernel (1,2,1)/4 to the normal-user
// histogram, preserving its total mass; boundaries reflect.
func (s *state) smoothX() {
	d := len(s.x)
	if d < 3 {
		return
	}
	var before float64
	for _, v := range s.x {
		before += v
	}
	sm := s.px[:d] // reuse buffer: px is dead between iterations
	for k := 0; k < d; k++ {
		prev := s.x[max(0, k-1)]
		next := s.x[min(d-1, k+1)]
		sm[k] = (prev + 2*s.x[k] + next) / 4
	}
	var after float64
	for _, v := range sm {
		after += v
	}
	scale := 1.0
	if after > 0 {
		scale = before / after
	}
	for k := 0; k < d; k++ {
		s.x[k] = sm[k] * scale
	}
}

func (s *state) result(poison []int, iters int, ll float64, converged bool) *Result {
	res := &Result{
		X:         append([]float64(nil), s.x...),
		Y:         append([]float64(nil), s.y...),
		Poison:    append([]int(nil), poison...),
		Iters:     iters,
		LogLik:    ll,
		Converged: converged,
	}
	return res
}

// emStep applies one full step of the EM map — E-step, the variant's
// M-step, optional EMS smoothing — and returns the log-likelihood of the
// pre-step iterate (the quantity the Tol rule watches).
func (s *state) emStep(cfg Config, mstep func(*state)) float64 {
	ll := s.eStep(cfg.Dense)
	mstep(s)
	if cfg.Smooth {
		s.smoothX()
	}
	return ll
}

// solvePlain is the literal fixed-point loop of Algorithm 2: iterate the
// EM map until |l(F_t) − l(F_{t+1})| < Tol or MaxIter. Returns the
// iteration count, final log-likelihood and whether the tolerance was met.
func (s *state) solvePlain(cfg Config, mstep func(*state)) (int, float64, bool) {
	tol, maxIter := cfg.tol(), cfg.maxIter()
	prevLL := math.Inf(-1)
	var ll float64
	for it := 1; it <= maxIter; it++ {
		ll = s.emStep(cfg, mstep)
		if it > 1 && math.Abs(ll-prevLL) < tol {
			return it, ll, true
		}
		prevLL = ll
	}
	return maxIter, ll, false
}

// solve dispatches between the plain and the SQUAREM-accelerated loop and
// packages the result. renorm projects an extrapolated iterate back onto
// the variant's constraint set (joint unit mass for EMF, the (1−γ, γ)
// split for EMF*).
func solve(m *Matrix, counts []float64, poison []int, cfg Config, mstep, renorm func(*state)) (*Result, error) {
	s, warm, err := newState(m, counts, poison, cfg)
	if err != nil {
		return nil, err
	}
	defer s.release()
	var (
		iters, restarts int
		ll              float64
		converged       bool
	)
	if cfg.Accelerate {
		iters, restarts, ll, converged = s.solveSQUAREM(cfg, mstep, renorm)
	} else {
		iters, ll, converged = s.solvePlain(cfg, mstep)
	}
	res := s.result(poison, iters, ll, converged)
	res.Restarts, res.Warm = restarts, warm
	recordRun(res)
	return res, nil
}

// renormJoint rescales {x̂, ŷ} to joint unit mass — EMF's constraint set.
func (s *state) renormJoint() {
	var total float64
	for _, v := range s.x {
		total += v
	}
	for _, j := range s.poison {
		total += s.y[j]
	}
	if total <= 0 {
		return
	}
	inv := 1 / total
	for k := range s.x {
		s.x[k] *= inv
	}
	for _, j := range s.poison {
		s.y[j] *= inv
	}
}

// renormSplit rescales x̂ to mass 1−γ and ŷ to mass γ — EMF*'s constraint
// set (Theorem 4).
func (s *state) renormSplit(gamma float64) {
	var sx, sy float64
	for _, v := range s.x {
		sx += v
	}
	for _, j := range s.poison {
		sy += s.y[j]
	}
	if sx > 0 {
		scale := (1 - gamma) / sx
		for k := range s.x {
			s.x[k] *= scale
		}
	}
	if sy > 0 {
		scale := gamma / sy
		for _, j := range s.poison {
			s.y[j] *= scale
		}
	} else if len(s.poison) > 0 {
		spread := gamma / float64(len(s.poison))
		for _, j := range s.poison {
			s.y[j] = spread
		}
	}
}

// Run executes EMF (Algorithm 2): it reconstructs the frequency histogram
// F = {x̂, ŷ} of normal values over the input buckets and poison values
// over the given poison output buckets, from the observed report counts.
func Run(m *Matrix, counts []float64, poison []int, cfg Config) (*Result, error) {
	mstep := func(s *state) { s.mStepEMF() }
	return solve(m, counts, poison, cfg, mstep, (*state).renormJoint)
}

// RunConstrained executes EMF* (Algorithm 4): EM with the M-step of
// Theorem 4, imposing Σx̂ = 1−γ and Σŷ = γ.
func RunConstrained(m *Matrix, counts []float64, poison []int, gamma float64, cfg Config) (*Result, error) {
	if gamma < 0 || gamma > 1 {
		return nil, errors.New("emf: gamma must lie in [0,1]")
	}
	mstep := func(s *state) { s.mStepConstrained(gamma) }
	renorm := func(s *state) { s.renormSplit(gamma) }
	return solve(m, counts, poison, cfg, mstep, renorm)
}
