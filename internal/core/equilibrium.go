package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mpmc/internal/linalg"
)

// Prediction is the performance model's output for one process in a
// co-running group (Section 3): its equilibrium effective cache size, the
// resulting miss rate, and the Eq. 3 throughput.
type Prediction struct {
	Feature *FeatureVector
	S       float64 // effective cache size, ways per set
	MPA     float64 // misses per access at S (== the paper's L2MPR)
	SPI     float64 // seconds per instruction
}

// MPI returns predicted L2 misses per instruction (API · MPA).
func (p Prediction) MPI() float64 { return p.Feature.API * p.MPA }

// SolverMethod selects the equilibrium solving algorithm.
type SolverMethod int

const (
	// SolverAuto runs the paper's Newton–Raphson and falls back to the
	// window bisection when it fails to converge.
	SolverAuto SolverMethod = iota
	// SolverNewton is the paper's formulation: Newton–Raphson on the k
	// equations of Eq. 7 plus the Eq. 1 capacity constraint.
	SolverNewton
	// SolverWindow is the equivalent scalar formulation: bisection on the
	// shared time window T of Section 3.3, with S_i(T) as the largest
	// fixed point of S = G_i(APS_i(S)·T). Monotonicity of every piece
	// makes it unconditionally convergent.
	SolverWindow
)

// PredictGroup predicts the steady-state behaviour of the processes whose
// feature vectors are given, co-running on cores that share one A-way
// cache. A solo process simply receives the whole cache. It is
// PredictGroupContext without a caller deadline.
func PredictGroup(features []*FeatureVector, assoc int, method SolverMethod) ([]Prediction, error) {
	return PredictGroupContext(context.Background(), features, assoc, method)
}

// PredictGroupContext is PredictGroup under a caller-supplied context: the
// equilibrium solvers check ctx every iteration, so a cancelled request
// abandons the solve promptly instead of running the search to
// convergence. The returned error is ctx's error when cancellation (not a
// solver failure) ended the solve.
func PredictGroupContext(ctx context.Context, features []*FeatureVector, assoc int, method SolverMethod) ([]Prediction, error) {
	return PredictGroupCached(ctx, features, assoc, method, nil)
}

// PredictGroupCached is PredictGroupContext with a solver-state handle:
// when st has recorded a converged solution for this exact group (same
// feature-vector identities, associativity, and method), the solve is
// seeded with it and — because the recorded sizes already satisfy the
// Eq. 1/Eq. 7 system the cold start would converge to — accepted at
// iteration zero, returning bit-identical Predictions without running the
// search. A seed that fails validation (diverged state) falls back to the
// cold start, whose result replaces it. st == nil is exactly
// PredictGroupContext. Only contended groups consult st; the solo and
// uncontended paths are already O(k).
func PredictGroupCached(ctx context.Context, features []*FeatureVector, assoc int, method SolverMethod, st *SolverState) ([]Prediction, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return predictInto(ctx, nil, features, assoc, method, st, nil, ws)
}

// predictInto is PredictGroupCached written into dst's backing array, with
// the solver's scratch drawn from ws and the combination table t (nil: none)
// asked ahead of st. Only contended combinations reach t — the solo and
// uncontended paths are already O(k) — and only a successful solve is
// recorded there. A combination t holds has passed every check below, so it
// is answered before them.
func predictInto(ctx context.Context, dst []Prediction, features []*FeatureVector, assoc int, method SolverMethod, st *SolverState, t *ComboTable, ws *workspace) ([]Prediction, error) {
	var key comboKey
	keyed := false
	if t != nil && len(features) > 1 {
		if key, keyed = keyOf(features, assoc, method); keyed {
			if out, ok := t.get(dst, &key); ok {
				return out, nil
			}
		}
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("core: empty co-run group")
	}
	if assoc <= 0 {
		return nil, fmt.Errorf("core: non-positive associativity")
	}
	if method != SolverAuto && method != SolverNewton && method != SolverWindow {
		return nil, fmt.Errorf("core: unknown solver method %d", method)
	}
	for _, f := range features {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	out := slices.Grow(dst[:0], len(features))
	a := float64(assoc)
	if len(features) == 1 {
		f := features[0]
		s := math.Min(f.GMax(), a)
		return append(out, predAt(f, s)), nil
	}
	// If the combined appetites cannot fill the cache there is no
	// contention: everyone gets their asymptotic size.
	total := 0.0
	for _, f := range features {
		total += f.GMax()
	}
	if total <= a {
		for _, f := range features {
			out = append(out, predAt(f, f.GMax()))
		}
		return out, nil
	}
	if keyed {
		t.solves.Add(1)
	}

	sizes, seeded := []float64(nil), false
	if st != nil {
		ws.skey = st.appendKey(ws.skey[:0], features, assoc, method)
		sizes, seeded = st.seed(ws.skey, features, a)
	}
	if !seeded {
		var err error
		switch method {
		case SolverWindow:
			sizes, err = solveWindow(ctx, features, a)
		case SolverNewton:
			sizes, err = solveNewton(ctx, features, a, ws)
		case SolverAuto:
			sizes, err = solveNewton(ctx, features, a, ws)
			if err != nil {
				// Only fall back when Newton itself failed; a cancelled
				// request must not start a second solve.
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				sizes, err = solveWindow(ctx, features, a)
			}
		default:
			return nil, fmt.Errorf("core: unknown solver method %d", method)
		}
		if err != nil {
			return nil, err
		}
		if st != nil {
			// The sizes may be the workspace's: the state keeps a copy.
			st.record(ws.skey, slices.Clone(sizes))
		}
	}
	for i, f := range features {
		out = append(out, predAt(f, sizes[i]))
	}
	if keyed {
		t.put(&key, out)
	}
	return out, nil
}

func predAt(f *FeatureVector, s float64) Prediction {
	mpa := f.MPA(s)
	return Prediction{Feature: f, S: s, MPA: mpa, SPI: f.SPI(mpa)}
}

// sizeAtWindow returns S_i(T): the largest fixed point of
// S = G_i(APS_i(S)·T), found by monotone iteration from S = GMax.
func sizeAtWindow(f *FeatureVector, t, assoc float64) float64 {
	s := math.Min(f.GMax(), assoc)
	for iter := 0; iter < 200; iter++ {
		n := f.APS(f.MPA(s)) * t
		next := f.G(n)
		if next > assoc {
			next = assoc
		}
		if math.Abs(next-s) < 1e-10 {
			return next
		}
		s = next
	}
	return s
}

// solveWindow finds the shared window T with Σ S_i(T) = A by bisection.
func solveWindow(ctx context.Context, features []*FeatureVector, assoc float64) ([]float64, error) {
	sum := func(t float64) float64 {
		total := 0.0
		for _, f := range features {
			total += sizeAtWindow(f, t, assoc)
		}
		return total
	}
	lo, hi := 0.0, 1e-6
	for iter := 0; sum(hi) < assoc; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lo = hi
		hi *= 4
		if iter > 80 {
			return nil, fmt.Errorf("core: window solver could not bracket the capacity constraint")
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-14*hi; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mid := (lo + hi) / 2
		if sum(mid) < assoc {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	sizes := make([]float64, len(features))
	total := 0.0
	for i, f := range features {
		sizes[i] = sizeAtWindow(f, t, assoc)
		total += sizes[i]
	}
	// Distribute the residual rounding so Eq. 1 (Σ S_i = A) holds exactly.
	// Shrinking is a plain rescale; growth must respect each process's
	// min(A, GMax) box, so whatever a cap absorbs is redistributed to the
	// still-growable processes (at most one process saturates per pass).
	if total > assoc {
		scale := assoc / total
		for i := range sizes {
			sizes[i] *= scale
		}
	} else if total > 0 && total < assoc {
		deficit := assoc - total
		for pass := 0; pass < len(sizes) && deficit > 0; pass++ {
			growable := 0.0
			for i, f := range features {
				if sizes[i] < math.Min(assoc, f.GMax()) {
					growable += sizes[i]
				}
			}
			if growable <= 0 {
				break
			}
			scale := 1 + deficit/growable
			deficit = 0
			for i, f := range features {
				box := math.Min(assoc, f.GMax())
				if sizes[i] >= box {
					continue
				}
				grown := float64(sizes[i] * scale)
				if grown > box {
					deficit += grown - box
					grown = box
				}
				sizes[i] = grown
			}
		}
	}
	return sizes, nil
}

// solveNewton is the paper's Eq. 7 Newton–Raphson: unknowns S_1..S_k,
// equations f_1 = ΣS_i − A and, for i ≥ 2,
//
//	f_i = G₁⁻¹(S₁)/G_i⁻¹(S_i) − API₁·(α_i·MPA_i(S_i)+β_i) /
//	      (API_i·(α₁·MPA₁(S₁)+β₁))
//
// with a numerically differenced Jacobian, damped steps, and box
// constraints keeping every S_i in (0, min(A, GMax_i)]. ctx is checked at
// the top of every Newton iteration. Everything, the returned sizes
// included, lives in one scratch block drawn from ws (fresh when ws is
// nil) and reused across iterations.
//
// The system is an arrow: f_1 is a sum, and f_i reads only S₁ and S_i. So
// G⁻¹ and SPI of every process are kept at the base point, a Jacobian
// column re-evaluates only the process it perturbs, and an accepted
// line-search trial hands its residual and evaluations to the next
// iteration: 2k process evaluations per iteration where differencing the
// whole residual per column took k²+2k. Every entry is the float
// operations of the full difference on the same operands.
func solveNewton(ctx context.Context, features []*FeatureVector, assoc float64, ws *workspace) ([]float64, error) {
	k := len(features)
	scratch := ws.floats(10*k + k*k)
	upper, r, rp, trial, step := scratch[:k], scratch[k:2*k], scratch[2*k:3*k], scratch[3*k:4*k], scratch[4*k:5*k]
	// G_i⁻¹(S_i) and SPI_i(S_i) at the base point s and at a trial point.
	inv, spi, invT, spiT := scratch[5*k:6*k], scratch[6*k:7*k], scratch[7*k:8*k], scratch[8*k:9*k]
	jac, s := scratch[9*k:9*k+k*k], scratch[9*k+k*k:]
	for i, f := range features {
		upper[i] = math.Min(assoc, f.GMax())
	}
	// Start from a proportional-appetite split.
	total := 0.0
	for i := range features {
		total += upper[i]
	}
	for i := range s {
		s[i] = upper[i] / total * assoc
		if s[i] > upper[i] {
			s[i] = upper[i]
		}
		if s[i] < 0.05 {
			s[i] = 0.05
		}
	}
	f1 := features[0]
	eval := func(i int, size float64) (float64, float64) {
		f := features[i]
		return f.GInverse(size), f.SPI(f.MPA(size))
	}
	// The Eq. 7 residuals are ratios whose scales differ by orders of
	// magnitude across heterogeneous processes; taking logarithms turns
	// them into well-conditioned differences with the same roots.
	row := func(i int, inv1, spi1, invi, spii float64) float64 {
		return math.Log(inv1/invi) - math.Log((f1.API*spii)/(features[i].API*spi1))
	}
	resid := func(r, inv, spi, s []float64) {
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		r[0] = sum - assoc
		for i := range s {
			inv[i], spi[i] = eval(i, s[i])
		}
		for i := 1; i < k; i++ {
			r[i] = row(i, inv[0], spi[0], inv[i], spi[i])
		}
	}
	const tol = 1e-9
	for iter := 0; iter < 100; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if iter == 0 {
			resid(r, inv, spi, s)
		}
		base := linalg.NormInf(r)
		if base < tol {
			return s, nil
		}
		// Forward-difference Jacobian, row-major. Column j moves S_j alone:
		// row 0 re-sums the perturbed point in order, column 0 moves the
		// reference process under every ratio, column j ≥ 1 moves row j, and
		// an untouched row differences its own residual, so NaN and the sign
		// of zero come out as the full difference gave them.
		for j := 0; j < k; j++ {
			h := float64(1e-6 * math.Max(1, s[j]))
			if s[j]+h > upper[j] {
				h = -h
			}
			sum := 0.0
			for i, v := range s {
				if i == j {
					v += h
				}
				sum += v
			}
			jac[j] = ((sum - assoc) - r[0]) / h
			invj, spij := eval(j, s[j]+h)
			for i := 1; i < k; i++ {
				d := r[i] - r[i]
				switch {
				case j == 0:
					d = row(i, invj, spij, inv[i], spi[i]) - r[i]
				case i == j:
					d = row(i, inv[0], spi[0], invj, spij) - r[i]
				}
				jac[i*k+j] = d / h
			}
		}
		copy(step, r)
		if err := linalg.SolveLUInPlace(jac, step); err != nil {
			return nil, fmt.Errorf("core: Newton–Raphson Jacobian singular: %w", err)
		}
		// Damped update with box clamping.
		lambda := 1.0
		for j := 0; j < k; j++ {
			ns := s[j] - step[j]
			if ns < 0.02 {
				lambda = math.Min(lambda, (s[j]-0.02)/step[j])
			}
			if ns > upper[j] {
				lambda = math.Min(lambda, (s[j]-upper[j])/step[j])
			}
		}
		if lambda <= 0 || math.IsNaN(lambda) {
			lambda = 0.1
		}
		improved := false
		for ; lambda > 1e-4; lambda /= 2 {
			copy(trial, s)
			ok := true
			for j := 0; j < k; j++ {
				trial[j] -= float64(lambda * step[j])
				if trial[j] < 0.02 || trial[j] > upper[j]+1e-12 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			resid(rp, invT, spiT, trial)
			if linalg.NormInf(rp) < base {
				// The accepted trial is the next base point, residual and
				// evaluations included.
				copy(s, trial)
				r, rp, inv, invT, spi, spiT = rp, r, invT, inv, spiT, spi
				improved = true
				break
			}
		}
		if !improved {
			return nil, fmt.Errorf("core: Newton–Raphson stalled at residual %.3g", base)
		}
	}
	return nil, fmt.Errorf("core: Newton–Raphson did not converge")
}
