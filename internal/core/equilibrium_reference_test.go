package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpmc/internal/linalg"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// referenceSolveNewton is solveNewton as it stood before the structured
// Jacobian: every finite-difference column re-evaluates the whole Eq. 7
// residual (k²+2k process evaluations per iteration), and the residual of
// an accepted line-search trial is recomputed at the top of the next
// iteration. It is the oracle the structured solver is checked against,
// bit for bit.
func referenceSolveNewton(ctx context.Context, features []*FeatureVector, assoc float64) ([]float64, error) {
	k := len(features)
	scratch := make([]float64, 5*k+k*k)
	upper, r, rp, trial, step := scratch[:k], scratch[k:2*k], scratch[2*k:3*k], scratch[3*k:4*k], scratch[4*k:5*k]
	jac := scratch[5*k:]
	for i, f := range features {
		upper[i] = math.Min(assoc, f.GMax())
	}
	// Start from a proportional-appetite split.
	s := make([]float64, k)
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
	// The Eq. 7 residuals are ratios whose scales differ by orders of
	// magnitude across heterogeneous processes; taking logarithms turns
	// them into well-conditioned differences with the same roots.
	resid := func(r, s []float64) {
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		r[0] = sum - assoc
		f1 := features[0]
		inv1 := f1.GInverse(s[0])
		spi1 := f1.SPI(f1.MPA(s[0]))
		for i := 1; i < k; i++ {
			fi := features[i]
			invi := fi.GInverse(s[i])
			spii := fi.SPI(fi.MPA(s[i]))
			r[i] = math.Log(inv1/invi) - math.Log((f1.API*spii)/(fi.API*spi1))
		}
	}
	const tol = 1e-9
	for iter := 0; iter < 100; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resid(r, s)
		base := linalg.NormInf(r)
		if base < tol {
			return s, nil
		}
		// Forward-difference Jacobian, row-major; trial doubles as the
		// perturbed point.
		for j := 0; j < k; j++ {
			h := 1e-6 * math.Max(1, s[j])
			if s[j]+h > upper[j] {
				h = -h
			}
			copy(trial, s)
			trial[j] += h
			resid(rp, trial)
			for i := 0; i < k; i++ {
				jac[i*k+j] = (rp[i] - r[i]) / h
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
				trial[j] -= lambda * step[j]
				if trial[j] < 0.02 || trial[j] > upper[j]+1e-12 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			resid(rp, trial)
			if linalg.NormInf(rp) < base {
				copy(s, trial)
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

// sameSolveWS is the workspace every sameSolve reuses, so each solve runs
// on the scratch its predecessor left behind.
var sameSolveWS = new(workspace)

// sameSolve fails unless solveNewton answers features at capacity assoc as
// referenceSolveNewton does: the same size bits, or the same error text.
// It reports whether the solve failed.
func sameSolve(t *testing.T, label string, features []*FeatureVector, assoc float64) (failed bool) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := referenceSolveNewton(ctx, features, assoc)
	got, gotErr := solveNewton(ctx, features, assoc, sameSolveWS)
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: err = %v, reference %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d sizes, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: S[%d] = %v (%#x), reference %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return wantErr != nil
}

// appetite returns Σ min(A, GMax_i): the capacity at and above which the
// group no longer contends.
func appetite(features []*FeatureVector, assoc float64) float64 {
	total := 0.0
	for _, f := range features {
		total += math.Min(assoc, f.GMax())
	}
	return total
}

// TestSolveNewtonMatchesReference sweeps the suite on every preset with
// k = 2…6 drawn with replacement, then random reuse-distance shapes, and
// demands the structured Jacobian reproduce the full one bit for bit.
func TestSolveNewtonMatchesReference(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for _, preset := range searchPresets {
		m := preset()
		feats := suiteFeatures(m)
		for k := 2; k <= 6; k++ {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)*10 + int64(k)))
				group := make([]*FeatureVector, k)
				for i := range group {
					group[i] = feats[rng.Intn(len(feats))]
				}
				sameSolve(t, fmt.Sprintf("%s k=%d seed=%d", m.Name, k, seed), group, float64(m.Assoc))
			}
		}
	}
	// Random reuse-distance shapes, at the cache's capacity and squeezed to
	// fractions of the group's appetite, where Newton often fails: the
	// failure and its text must be the reference's too.
	failures := 0
	for seed := uint64(0); seed < 60; seed++ {
		assoc, k := 2+int(seed%15), 2+int(seed/3%5)
		group := randomGroup(seed, assoc, k)
		sameSolve(t, fmt.Sprintf("random seed=%d A=%d k=%d", seed, assoc, k), group, float64(assoc))
		for _, fill := range []float64{0.05, 0.3, 0.6, 0.9, 0.99, 1} {
			if sameSolve(t, fmt.Sprintf("random seed=%d A=%d k=%d fill=%g", seed, assoc, k, fill), group, appetite(group, float64(assoc))*fill) {
				failures++
			}
		}
	}
	if failures < 10 {
		t.Errorf("Newton failed on %d squeezed random groups, want at least 10: the error path went all but uncompared", failures)
	}
}

// TestSolveNewtonAdversarial compares the two solvers where the structured
// Jacobian's shortcuts could show: a backward difference at the box, rows
// that are exact copies of each other, a process with next to no appetite,
// and a stall that SolverAuto must answer with the window solver.
func TestSolveNewtonAdversarial(t *testing.T) {
	m := machine.FourCoreServer()
	a := float64(m.Assoc)
	feats := suiteFeatures(m)
	mcf, art := TruthFeature(workload.ByName("mcf"), m), TruthFeature(workload.ByName("art"), m)

	// Capacity a hair under the combined appetite starts every process
	// within h of its box, so each column differences backwards (h < 0).
	for _, group := range [][]*FeatureVector{{mcf, art}, {art, mcf, feats[0]}, feats[:6]} {
		total := appetite(group, a)
		for _, slack := range []float64{0, 1e-9, 1e-7, 1e-3} {
			capacity := total - slack
			if start := math.Min(a, group[0].GMax()) / total * capacity; slack < 1e-7 && start+1e-6*math.Max(1, start) <= math.Min(a, group[0].GMax()) {
				t.Fatalf("slack %g does not pin process 0 at its box", slack)
			}
			sameSolve(t, fmt.Sprintf("pinned k=%d slack=%g", len(group), slack), group, capacity)
		}
	}

	// Identical processes: every ratio row is the same function.
	for k := 2; k <= 6; k++ {
		group := make([]*FeatureVector, k)
		for i := range group {
			group[i] = mcf
		}
		sameSolve(t, fmt.Sprintf("identical k=%d", k), group, a)
		group[k-1] = art
		sameSolve(t, fmt.Sprintf("identical but one k=%d", k), group, a)
	}

	// One process that all but stops missing after its first way: its
	// appetite is a single way and its start point is clamped up to 0.05.
	curve := make([]float64, m.Assoc+1)
	curve[0] = 1
	for s := 1; s <= m.Assoc; s++ {
		curve[s] = 1e-7 / float64(s)
	}
	sated, err := NewFeatureVector("sated", curve, 1e-6, 1e-6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range [][]*FeatureVector{{sated, mcf, art}, {mcf, sated, art}, {mcf, art, sated, sated}} {
		sameSolve(t, "near-zero appetite", group, a)
		sameSolve(t, "near-zero appetite, squeezed", group, 1.5)
	}

	// A group on which Newton stalls at the cache's own capacity: SolverAuto
	// must hand back exactly the window solver's answer, as it did under
	// the full Jacobian.
	const stallSeed, stallAssoc, stallK = 156, 8, 4
	group := randomGroup(stallSeed, stallAssoc, stallK)
	if !sameSolve(t, "stall", group, stallAssoc) {
		t.Fatal("the stalling group no longer stalls Newton: pick another")
	}
	auto, err := PredictGroup(group, stallAssoc, SolverAuto)
	if err != nil {
		t.Fatalf("SolverAuto on a stalling group: %v", err)
	}
	window, err := solveWindow(context.Background(), group, stallAssoc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range window {
		if math.Float64bits(auto[i].S) != math.Float64bits(window[i]) {
			t.Fatalf("SolverAuto S[%d] = %v after a stall, window solver gives %v", i, auto[i].S, window[i])
		}
	}
}

// FuzzSolveNewtonMatchesReference drives both solvers over arbitrary
// reuse-distance shapes, group sizes, repeated members and capacities down
// to a twentieth of the group's appetite and up to all of it.
func FuzzSolveNewtonMatchesReference(f *testing.F) {
	f.Add(uint64(1), 8, 2, false, uint16(0))
	f.Add(uint64(2), 16, 4, true, uint16(0))
	f.Add(uint64(99), 12, 3, false, uint16(65535)) // capacity = appetite: every h negative
	f.Add(uint64(7), 5, 6, true, uint16(65000))
	f.Add(uint64(3), 2, 5, false, uint16(1))   // squeezed hard
	f.Add(uint64(156), 6, 2, false, uint16(0)) // Newton stalls
	f.Fuzz(func(t *testing.T, seed uint64, assocRaw, kRaw int, repeat bool, fill uint16) {
		assoc := 2 + int(uint(assocRaw)%15) // 2..16
		k := 2 + int(uint(kRaw)%5)          // 2..6
		group := randomGroup(seed, assoc, k)
		if repeat {
			group[k-1] = group[0]
		}
		capacity := float64(assoc)
		if fill > 0 {
			capacity = appetite(group, capacity) * (0.05 + 0.95*float64(fill)/65535)
		}
		sameSolve(t, "fuzz", group, capacity)
	})
}
