package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// contendedGroup returns oracle features whose combined appetite exceeds
// the machine's associativity, so PredictGroup must actually solve the
// equilibrium rather than short-circuit on the no-contention path.
func contendedGroup(t *testing.T, m *machine.Machine, names ...string) []*FeatureVector {
	t.Helper()
	feats := make([]*FeatureVector, len(names))
	total := 0.0
	for i, n := range names {
		feats[i] = TruthFeature(workload.ByName(n), m)
		total += feats[i].GMax()
	}
	if total <= float64(m.Assoc) {
		t.Fatalf("group %v is not contended on %s (ΣGMax=%.2f ≤ A=%d)", names, m.Name, total, m.Assoc)
	}
	return feats
}

// TestPredictGroupCancelled checks every solver abandons a contended solve
// under an already-cancelled context and reports ctx's error — in
// particular that SolverAuto does not fall back to a second full solve
// after cancellation killed the first.
func TestPredictGroupCancelled(t *testing.T) {
	m := machine.FourCoreServer()
	feats := contendedGroup(t, m, "mcf", "art")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range []SolverMethod{SolverAuto, SolverNewton, SolverWindow} {
		if _, err := PredictGroupContext(ctx, feats, m.Assoc, method); !errors.Is(err, context.Canceled) {
			t.Errorf("solver %v under cancelled ctx: err = %v, want context.Canceled", method, err)
		}
	}
	// The same group solves fine once the context is live again.
	if _, err := PredictGroupContext(context.Background(), feats, m.Assoc, SolverAuto); err != nil {
		t.Fatalf("control solve failed: %v", err)
	}
}

// testPowerModelFor fits the Eq. 9 MVLR to a synthetic full-rank dataset
// from known coefficients — instant, for tests exercising control flow
// rather than model quality.
func testPowerModelFor(t *testing.T, m *machine.Machine) *PowerModel {
	t.Helper()
	coef := []float64{5, 2e-9, 3e-9, 4e-8, 1e-9, 2.5e-9}
	ds := &PowerDataset{}
	for i := 0; i < 16; i++ {
		v := []float64{
			float64(i%5+1) * 1e8,
			float64(i%3+1) * 5e7,
			float64(i%7+1) * 1e6,
			float64(i%4+1) * 2e8,
			float64(i%6+1) * 1e7,
		}
		w := coef[0]
		for j, c := range coef[1:] {
			w += c * v[j]
		}
		ds.Features = append(ds.Features, v)
		ds.Watts = append(ds.Watts, w)
	}
	pm, err := FitPowerModel(ds)
	if err != nil {
		t.Fatalf("fitting synthetic power model: %v", err)
	}
	return pm
}

// TestBestAssignmentCancelled checks the exhaustive search stops between
// candidate estimates.
func TestBestAssignmentCancelled(t *testing.T) {
	m := machine.FourCoreServer()
	feats := contendedGroup(t, m, "mcf", "art")
	cm := NewCombinedModel(m, testPowerModelFor(t, m))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cm.BestAssignmentContext(ctx, feats, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("BestAssignmentContext under cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestSolveWindowCapacityExact checks the Eq. 1 invariant the residual
// distribution exists to uphold: the returned sizes sum to exactly the
// associativity (to float tolerance) and respect every process's
// min(A, GMax) box — in both the shrink and the growth direction.
func TestSolveWindowCapacityExact(t *testing.T) {
	cases := [][]string{
		{"mcf", "art"},
		{"mcf", "art", "gzip"},
		{"art", "vpr", "twolf", "equake"},
	}
	for _, machineOf := range []func() *machine.Machine{machine.FourCoreServer, machine.TwoCoreWorkstation} {
		m := machineOf()
		for _, names := range cases {
			feats := contendedGroup(t, m, names...)
			sizes, err := solveWindow(context.Background(), feats, float64(m.Assoc))
			if err != nil {
				t.Fatalf("%s %v: %v", m.Name, names, err)
			}
			total := 0.0
			for i, s := range sizes {
				box := math.Min(float64(m.Assoc), feats[i].GMax())
				if s <= 0 || s > box+1e-9 {
					t.Errorf("%s %v: S[%d]=%.6f outside (0, %.6f]", m.Name, names, i, s, box)
				}
				total += s
			}
			if math.Abs(total-float64(m.Assoc)) > 1e-9 {
				t.Errorf("%s %v: ΣS = %.12f, want exactly A = %d", m.Name, names, total, m.Assoc)
			}
		}
	}
}

// TestBestAssignmentStopsAtCancel trips the context after its N-th poll,
// early, mid-search and on the search's very last poll: the search reports
// context.Canceled, starts at most one more layout estimate, finishes no
// further solve and polls at most twice more.
func TestBestAssignmentStopsAtCancel(t *testing.T) {
	m := machine.FourCoreServer()
	procs := suiteFeatures(m)[:5]
	pm := testPowerModelFor(t, m)
	whole := &countingContext{Context: context.Background()}
	if _, err := NewCombinedModel(m, pm).BestAssignmentContext(whole, procs, 0); err != nil {
		t.Fatal(err)
	}
	last := whole.polls.Load() - 1
	for _, trip := range []int64{1, 7, last} {
		cm := NewCombinedModel(m, pm)
		cm.State = NewSolverState(0)
		var before SolverStateStats
		layouts, layoutsBefore := 0, 0
		ctx := &countingContext{Context: context.Background(), trip: trip}
		ctx.tripped = func() { before, layoutsBefore = cm.State.Stats(), layouts }
		res, err := cm.bestAssignment(ctx, procs, 0, &layouts)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("trip %d: %d results, err = %v, want context.Canceled", trip, len(res), err)
		}
		after := cm.State.Stats()
		if d := layouts - layoutsBefore; d > 1 {
			t.Errorf("trip %d: %d layout estimates started after the cancel", trip, d)
		}
		if d := (after.Misses + after.Rejected + after.Hits) - (before.Misses + before.Rejected + before.Hits); d != 0 {
			t.Errorf("trip %d: %d solves finished after the cancel", trip, d)
		}
		if extra := ctx.polls.Load() - trip; extra > 2 {
			t.Errorf("trip %d: polled %d more times after the cancel", trip, extra-1)
		}
	}
}

// TestSolveStopsWithinOneIteration trips the context between Newton
// iterations: solveNewton returns at its next poll, and SolverAuto spends
// one more poll seeing the cancel and does not start the window solver.
func TestSolveStopsWithinOneIteration(t *testing.T) {
	m := machine.FourCoreServer()
	feats := contendedGroup(t, m, "mcf", "art")
	whole := &countingContext{Context: context.Background()}
	if _, err := PredictGroupContext(whole, feats, m.Assoc, SolverNewton); err != nil {
		t.Fatal(err)
	}
	iters := whole.polls.Load()
	if iters < 3 {
		t.Fatalf("mcf+art converge in %d Newton polls; the test needs a cancel mid-solve", iters)
	}
	for _, tc := range []struct {
		method SolverMethod
		extra  int64 // polls from the refused one on
	}{{SolverNewton, 1}, {SolverAuto, 2}} {
		for _, trip := range []int64{1, iters - 1} {
			ctx := &countingContext{Context: context.Background(), trip: trip}
			if _, err := PredictGroupContext(ctx, feats, m.Assoc, tc.method); !errors.Is(err, context.Canceled) {
				t.Fatalf("method %d trip %d: err = %v, want context.Canceled", tc.method, trip, err)
			}
			if polls := ctx.polls.Load(); polls != trip+tc.extra {
				t.Errorf("method %d trip %d: %d polls, want %d", tc.method, trip, polls, trip+tc.extra)
			}
		}
	}
}
