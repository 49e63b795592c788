package emf

import "math"

// SQUAREM acceleration of the EM fixed-point iteration (Varadhan &
// Roland's squared iterative scheme, SqS3 steplength). One cycle runs two
// base EM steps θ₀→θ₁→θ₂, forms the step differences r = θ₁−θ₀ and
// v = (θ₂−θ₁)−r, picks the steplength
//
//	α = −‖r‖/‖v‖  (clamped into [−bound, −1], 1 ≤ bound ≤ maxAlpha)
//
// and jumps to the extrapolated iterate
//
//	θ' = θ₀ − 2αr + α²v = (1+α)²·θ₀ − 2α(1+α)·θ₁ + α²·θ₂,
//
// an affine combination of the three iterates (coefficients sum to one),
// projected back onto the constraint set (negatives clamped, masses
// renormalized). A stabilizing plain EM step follows the jump; if its
// log-likelihood falls below the cycle's last base value, the jump is
// rejected and the cycle restarts from θ₂ — exactly the plain double step
// — so the safeguarded sequence is monotone like plain EM and converges
// to the same fixed point under the same Tol rule. At α = −1 the
// extrapolation degenerates to θ₂, i.e. plain EM.
//
// The steplength bound adapts to the safeguard's verdicts: a rejected jump
// burns one E-step, and with the bound fixed at maxAlpha 91–97 % of the
// jumps were rejected on every measured workload (three E-steps per two EM
// steps of progress). So the bound shrinks ÷16 after a rejection — towards
// 1, where the cycle is three genuine EM steps with nothing wasted — and
// doubles back after an accepted jump, never past maxAlpha: about four
// accepted jumps per rejected one once it has found its level. The bound
// only chooses among iterates the safeguard would accept anyway, so the
// fixed point and the termination rule are untouched.
//
// Iterations are counted in E-step evaluations (3 per full cycle), the
// same cost unit as plain EM, so MaxIter bounds identical work in both
// modes.

// maxAlpha is the ceiling of the adaptive steplength bound and its value
// at the start of a fit (a cap sweep on the full harness showed the large
// cap winning on warm-started chains even though tighter caps win isolated
// cold fits — the adaptive bound takes each where it helps).
const maxAlpha = 256.0

// solveSQUAREM runs the accelerated loop. Returns E-step evaluations,
// rejected extrapolations, the final log-likelihood and convergence.
func (s *state) solveSQUAREM(cfg Config, mstep, renorm func(*state)) (iters, restarts int, ll float64, converged bool) {
	tol, maxIter := cfg.tol(), cfg.maxIter()
	prevLL := math.Inf(-1)
	// justJumped suppresses the convergence check on the base step that
	// immediately follows an accepted extrapolation: the landing point can
	// sit in a transiently flat spot where one EM step moves l(F) by less
	// than Tol without being near the fixed point. Termination then needs a
	// sub-Tol change between two genuine consecutive EM iterates.
	justJumped := false
	bound := maxAlpha
	for iters < maxIter {
		// Base step 1: θ₀ → θ₁.
		copy(s.sx0, s.x)
		copy(s.sy0, s.y)
		ll = s.emStep(cfg, mstep)
		iters++
		if iters > 1 && !justJumped && math.Abs(ll-prevLL) < tol {
			return iters, restarts, ll, true
		}
		justJumped = false
		prevLL = ll
		if iters >= maxIter {
			break
		}

		// Base step 2: θ₁ → θ₂.
		copy(s.sx1, s.x)
		copy(s.sy1, s.y)
		ll = s.emStep(cfg, mstep)
		iters++
		if math.Abs(ll-prevLL) < tol {
			return iters, restarts, ll, true
		}
		prevLL = ll
		if iters >= maxIter {
			break
		}

		// Steplength from the two step differences over the joint (x̂, ŷ)
		// parameter vector (ŷ varies on the poison set only).
		copy(s.sx2, s.x)
		copy(s.sy2, s.y)
		var rr, vv float64
		for k := range s.x {
			r := s.sx1[k] - s.sx0[k]
			v := s.x[k] - 2*s.sx1[k] + s.sx0[k]
			rr += r * r
			vv += v * v
		}
		for _, j := range s.poison {
			r := s.sy1[j] - s.sy0[j]
			v := s.y[j] - 2*s.sy1[j] + s.sy0[j]
			rr += r * r
			vv += v * v
		}
		if vv < 1e-300 || rr < 1e-300 {
			// The iterates have effectively stopped moving; the next base
			// steps terminate on the Tol rule.
			continue
		}
		alpha := -math.Sqrt(rr / vv)
		if alpha > -1 {
			alpha = -1
		} else if alpha < -bound {
			alpha = -bound
		}
		c0 := (1 + alpha) * (1 + alpha)
		c1 := -2 * alpha * (1 + alpha)
		c2 := alpha * alpha
		for k := range s.x {
			v := c0*s.sx0[k] + c1*s.sx1[k] + c2*s.x[k]
			if v < 0 {
				v = 0
			}
			s.x[k] = v
		}
		for _, j := range s.poison {
			v := c0*s.sy0[j] + c1*s.sy1[j] + c2*s.y[j]
			if v < 0 {
				v = 0
			}
			s.y[j] = v
		}
		renorm(s)

		// Stabilization step from θ': its log-likelihood l(θ') decides the
		// monotonicity safeguard against the last base value l(θ₁) (plain EM
		// would have reached l(θ₂) ≥ l(θ₁)).
		ll = s.emStep(cfg, mstep)
		iters++
		if ll < prevLL {
			// Jump rejected: fall back to the plain double-step iterate θ₂.
			copy(s.x, s.sx2)
			copy(s.y, s.sy2)
			restarts++
			ll = prevLL
			bound = max(bound/16, 1)
			continue
		}
		bound = min(bound*2, maxAlpha)
		if alpha == -1 && math.Abs(ll-prevLL) < tol {
			// At α = −1 the jump degenerated to the plain step, so this is a
			// genuine consecutive-iterate comparison.
			return iters, restarts, ll, true
		}
		justJumped = alpha < -1
		prevLL = ll
	}
	return iters, restarts, ll, false
}
