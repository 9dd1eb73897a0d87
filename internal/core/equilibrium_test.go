package core

import (
	"context"
	"math"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/sim"
	"mpmc/internal/workload"
)

func TestPredictGroupSolo(t *testing.T) {
	f := simpleFeature(t)
	preds, err := PredictGroup([]*FeatureVector{f}, 4, SolverAuto)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(preds[0].S-4) > 0.01 {
		t.Fatalf("solo S = %v, want 4", preds[0].S)
	}
	if math.Abs(preds[0].MPA-0.2) > 0.01 {
		t.Fatalf("solo MPA = %v", preds[0].MPA)
	}
}

func TestPredictGroupSymmetric(t *testing.T) {
	// Two identical processes must split the cache evenly under every
	// solver.
	m := machine.FourCoreServer()
	f1 := TruthFeature(workload.ByName("mcf"), m)
	f2 := TruthFeature(workload.ByName("mcf"), m)
	for _, method := range []SolverMethod{SolverWindow, SolverNewton, SolverAuto} {
		preds, err := PredictGroup([]*FeatureVector{f1, f2}, m.Assoc, method)
		if err != nil {
			t.Fatalf("method %v: %v", method, err)
		}
		if math.Abs(preds[0].S-preds[1].S) > 0.05 {
			t.Fatalf("method %v: asymmetric split %v vs %v", method, preds[0].S, preds[1].S)
		}
		if math.Abs(preds[0].S+preds[1].S-float64(m.Assoc)) > 0.05 {
			t.Fatalf("method %v: capacity violated: %v", method, preds[0].S+preds[1].S)
		}
	}
}

func TestPredictGroupCapacityConstraint(t *testing.T) {
	// Eq. 1: sizes sum to A for contended groups of any size.
	m := machine.FourCoreServer()
	names := []string{"mcf", "art", "twolf", "vpr"}
	var fs []*FeatureVector
	for _, n := range names {
		fs = append(fs, TruthFeature(workload.ByName(n), m))
	}
	for k := 2; k <= 4; k++ {
		preds, err := PredictGroup(fs[:k], m.Assoc, SolverWindow)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range preds {
			sum += p.S
			if p.S <= 0 {
				t.Fatalf("k=%d: non-positive size %v", k, p.S)
			}
		}
		if math.Abs(sum-float64(m.Assoc)) > 0.05 {
			t.Fatalf("k=%d: ΣS = %v, want %d", k, sum, m.Assoc)
		}
	}
}

func TestPredictGroupAppetiteOrdering(t *testing.T) {
	// The memory-bound process out-competes the CPU-bound one for ways.
	m := machine.FourCoreServer()
	mcf := TruthFeature(workload.ByName("mcf"), m)
	gzip := TruthFeature(workload.ByName("gzip"), m)
	preds, err := PredictGroup([]*FeatureVector{mcf, gzip}, m.Assoc, SolverWindow)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].S <= preds[1].S {
		t.Fatalf("mcf S=%v should exceed gzip S=%v", preds[0].S, preds[1].S)
	}
	// And contention raises both miss rates above full-cache level.
	if preds[0].MPA < mcf.MPA(float64(m.Assoc)) {
		t.Fatal("contended MPA below solo MPA")
	}
}

func TestNewtonAgreesWithWindow(t *testing.T) {
	m := machine.FourCoreServer()
	pairs := [][2]string{{"mcf", "art"}, {"twolf", "vpr"}, {"ammp", "bzip2"}, {"mcf", "gzip"}}
	for _, pair := range pairs {
		fs := []*FeatureVector{
			TruthFeature(workload.ByName(pair[0]), m),
			TruthFeature(workload.ByName(pair[1]), m),
		}
		pw, err := PredictGroup(fs, m.Assoc, SolverWindow)
		if err != nil {
			t.Fatalf("%v window: %v", pair, err)
		}
		pn, err := PredictGroup(fs, m.Assoc, SolverNewton)
		if err != nil {
			// Newton may legitimately fail on hard instances; Auto
			// covers that. But it should succeed on these.
			t.Fatalf("%v newton: %v", pair, err)
		}
		for i := range pw {
			if math.Abs(pw[i].S-pn[i].S) > 0.15 {
				t.Fatalf("%v proc %d: window S=%.3f newton S=%.3f", pair, i, pw[i].S, pn[i].S)
			}
		}
	}
}

func TestNoContentionWhenCacheIsLarge(t *testing.T) {
	// Two tiny-working-set processes in a large cache: no contention,
	// both keep their asymptotic sizes.
	c1 := []float64{1, 0.4, 0, 0, 0, 0, 0, 0, 0}
	c2 := []float64{1, 0.5, 0.1, 0, 0, 0, 0, 0, 0}
	f1, _ := NewFeatureVector("a", c1, 1e-6, 1e-6, 0.01)
	f2, _ := NewFeatureVector("b", c2, 1e-6, 1e-6, 0.01)
	preds, err := PredictGroup([]*FeatureVector{f1, f2}, 8, SolverAuto)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].S > 2.1 || preds[1].S > 3.1 {
		t.Fatalf("uncontended sizes inflated: %v %v", preds[0].S, preds[1].S)
	}
	if preds[0].MPA > 0.01 || preds[1].MPA > 0.01 {
		t.Fatalf("uncontended processes should not miss: %v %v", preds[0].MPA, preds[1].MPA)
	}
}

func TestPredictGroupErrors(t *testing.T) {
	if _, err := PredictGroup(nil, 4, SolverAuto); err == nil {
		t.Fatal("accepted empty group")
	}
	f := simpleFeature(t)
	if _, err := PredictGroup([]*FeatureVector{f}, 0, SolverAuto); err == nil {
		t.Fatal("accepted zero associativity")
	}
	if _, err := PredictGroup([]*FeatureVector{f}, 4, SolverMethod(99)); err == nil {
		t.Fatal("accepted unknown method")
	}
}

// TestPredictionMatchesSimulation is the Table 1 mechanism in miniature:
// with oracle features, predicted MPA and SPI must match the simulated
// co-run within a few percent.
func TestPredictionMatchesSimulation(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	pairs := [][2]string{{"mcf", "art"}, {"twolf", "vpr"}, {"mcf", "gzip"}}
	for _, pair := range pairs {
		a := workload.ByName(pair[0])
		b := workload.ByName(pair[1])
		preds, err := PredictGroup([]*FeatureVector{
			TruthFeature(a, m), TruthFeature(b, m),
		}, m.Assoc, SolverAuto)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(m, sim.Single(a, b), sim.Options{Warmup: 3, Duration: 6, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range pair {
			meas := res.ProcByName(name)
			if d := math.Abs(preds[i].MPA - meas.MPA()); d > 0.08 {
				t.Errorf("%v %s: MPA predicted %.4f measured %.4f (Δ=%.4f)",
					pair, name, preds[i].MPA, meas.MPA(), d)
			}
			if rel := math.Abs(preds[i].SPI-meas.SPI()) / meas.SPI(); rel > 0.05 {
				t.Errorf("%v %s: SPI predicted %.4g measured %.4g (%.1f%%)",
					pair, name, preds[i].SPI, meas.SPI(), rel*100)
			}
		}
	}
}

func TestMPIHelper(t *testing.T) {
	f := simpleFeature(t)
	p := predAt(f, 2)
	if math.Abs(p.MPI()-f.API*p.MPA) > 1e-15 {
		t.Fatal("MPI inconsistent")
	}
}

func TestGroupOfFourMatchesSimulation(t *testing.T) {
	// Table 4's scenarios put up to four processes behind one cache via
	// time sharing; here four processes share one cache *concurrently*
	// (a hypothetical 4-core single-die machine), exercising the k=4
	// equilibrium directly against simulation.
	m := machine.FourCoreServer()
	single := *m
	single.Groups = [][]int{{0, 1, 2, 3}}
	names := []string{"mcf", "twolf", "vpr", "ammp"}
	var fs []*FeatureVector
	var specs []*workload.Spec
	for _, n := range names {
		specs = append(specs, workload.ByName(n))
		fs = append(fs, TruthFeature(workload.ByName(n), &single))
	}
	preds, err := PredictGroup(fs, single.Assoc, SolverAuto)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(&single, sim.Single(specs...), sim.Options{Warmup: 3, Duration: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	sumS := 0.0
	for i, p := range preds {
		meas := res.Procs[i]
		sumS += p.S
		if d := math.Abs(p.MPA - meas.MPA()); d > 0.06 {
			t.Errorf("%s: MPA predicted %.4f measured %.4f", names[i], p.MPA, meas.MPA())
		}
		if d := math.Abs(p.S - meas.AvgWays); d > 1.2 {
			t.Errorf("%s: S predicted %.2f measured %.2f", names[i], p.S, meas.AvgWays)
		}
	}
	if math.Abs(sumS-float64(single.Assoc)) > 0.1 {
		t.Errorf("sizes sum to %.2f, want %d", sumS, single.Assoc)
	}
}

// TestContendedSolveAllocs pins the Newton solve's heap traffic: one
// scratch block, the sizes and the predictions, however many iterations and
// line-search trials the solve takes (it was 37 objects when every
// residual, trial point, Jacobian and LU copy was its own allocation).
func TestContendedSolveAllocs(t *testing.T) {
	m := machine.FourCoreServer()
	pair := []*FeatureVector{TruthFeature(workload.ByName("mcf"), m), TruthFeature(workload.ByName("art"), m)}
	if pair[0].GMax()+pair[1].GMax() <= float64(m.Assoc) {
		t.Fatal("mcf+art do not contend for the cache; the pin would measure nothing")
	}
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		if _, err := PredictGroupContext(ctx, pair, m.Assoc, SolverNewton); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Errorf("contended two-process solve allocates %v objects, want at most 4", n)
	}
}
