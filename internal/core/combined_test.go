package core

import (
	"context"
	"math"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/sim"
	"mpmc/internal/workload"
)

// testCombined builds a combined model with truth features and a quickly
// trained power model.
func testCombined(t *testing.T, m *machine.Machine) (*CombinedModel, map[string]*FeatureVector) {
	t.Helper()
	pm, _ := trainTestModel(t, m)
	cm := NewCombinedModel(m, pm)
	feats := map[string]*FeatureVector{}
	for _, s := range workload.ModelSet() {
		feats[s.Name] = TruthFeature(s, m)
	}
	return cm, feats
}

func TestPredictedRatesConsistent(t *testing.T) {
	f := simpleFeature(t)
	f.L1RPI, f.BRPI, f.FPPI = 0.5, 0.2, 0.1
	p := predAt(f, 2)
	r := PredictedRates(p)
	if math.Abs(r.L1RPS*p.SPI-0.5) > 1e-12 {
		t.Fatal("L1RPS inconsistent")
	}
	if math.Abs(r.L2MPS/r.L2RPS-p.MPA) > 1e-12 {
		t.Fatal("miss ratio inconsistent")
	}
}

func TestP1P2SumEqualsCorePower(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, feats := testCombined(t, m)
	p := predAt(feats["mcf"], 4)
	sum := cm.P1(p) + cm.P2(p)
	direct := cm.ProcessCorePower(p)
	if math.Abs(sum-direct) > 1e-9 {
		t.Fatalf("P1+P2 = %v, CorePower = %v", sum, direct)
	}
	// P2 is the negative miss term on our machines.
	if cm.P2(p) >= 0 {
		t.Fatalf("P2 = %v, want negative", cm.P2(p))
	}
}

func TestEstimateIdleMachine(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, _ := testCombined(t, m)
	watts, err := cm.EstimateAssignment(make(Assignment, m.NumCores))
	if err != nil {
		t.Fatal(err)
	}
	want := m.Oracle.Uncore + float64(m.NumCores)*m.Oracle.CoreIdle
	if math.Abs(watts-want)/want > 0.2 {
		t.Fatalf("idle estimate %.2f want ~%.2f", watts, want)
	}
}

func TestEstimateMatchesMeasurement(t *testing.T) {
	// The Table 4 mechanism in miniature: estimate from profiles only,
	// then measure.
	m := machine.TwoCoreWorkstation()
	cm, feats := testCombined(t, m)
	cases := []struct {
		name string
		est  Assignment
		run  sim.Assignment
	}{
		{
			"pair",
			Assignment{{feats["mcf"]}, {feats["gzip"]}},
			sim.Single(workload.ByName("mcf"), workload.ByName("gzip")),
		},
		{
			"timeshare",
			Assignment{{feats["twolf"], feats["vpr"]}, nil},
			sim.Assignment{Procs: [][]*workload.Spec{
				{workload.ByName("twolf"), workload.ByName("vpr")}, nil}},
		},
	}
	for _, c := range cases {
		est, err := cm.EstimateAssignment(c.est)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(m, c.run, sim.Options{Warmup: 4, Duration: 10, Seed: 55})
		if err != nil {
			t.Fatal(err)
		}
		meas := res.AvgMeasuredPower()
		if rel := math.Abs(est-meas) / meas; rel > 0.08 {
			t.Errorf("%s: estimated %.2f W measured %.2f W (%.1f%%)", c.name, est, meas, rel*100)
		}
	}
}

func TestEstimateAdditionConsistent(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, feats := testCombined(t, m)
	base := Assignment{{feats["twolf"]}, nil}
	viaAdd, err := cm.EstimateAdditionContext(context.Background(), base, feats["art"], 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := cm.EstimateAssignment(Assignment{{feats["twolf"]}, {feats["art"]}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(viaAdd-direct) > 1e-9 {
		t.Fatalf("Figure 1 addition %.4f vs direct %.4f", viaAdd, direct)
	}
	// The base assignment must not be mutated.
	if len(base[1]) != 0 {
		t.Fatal("EstimateAdditionContext mutated its input")
	}
}

func TestEstimateAssignmentErrors(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, feats := testCombined(t, m)
	if _, err := cm.EstimateAssignment(Assignment{{feats["mcf"]}}); err == nil {
		t.Fatal("accepted wrong core count")
	}
	if _, err := cm.EstimateAssignment(Assignment{{nil}, nil}); err == nil {
		t.Fatal("accepted nil feature")
	}
	if _, err := cm.EstimateAdditionContext(context.Background(), Assignment{nil, nil}, feats["mcf"], 9); err == nil {
		t.Fatal("accepted out-of-range core")
	}
}

func TestMoreLoadMorePower(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, feats := testCombined(t, m)
	one, err := cm.EstimateAssignment(Assignment{{feats["art"]}, nil})
	if err != nil {
		t.Fatal(err)
	}
	two, err := cm.EstimateAssignment(Assignment{{feats["art"]}, {feats["vpr"]}})
	if err != nil {
		t.Fatal(err)
	}
	if two <= one {
		t.Fatalf("adding a process reduced estimated power: %.2f → %.2f", one, two)
	}
}
