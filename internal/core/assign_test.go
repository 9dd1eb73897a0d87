package core

import (
	"context"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/sim"
	"mpmc/internal/workload"
)

func TestBestAssignmentOrdersByPower(t *testing.T) {
	m := machine.FourCoreServer()
	cm, feats := testCombined(t, m)
	procs := []*FeatureVector{feats["mcf"], feats["art"], feats["gzip"], feats["vpr"]}
	results, err := cm.BestAssignmentContext(context.Background(), procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 2 {
		t.Fatalf("only %d candidate assignments", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Watts < results[i-1].Watts {
			t.Fatal("results not sorted by watts")
		}
	}
	// The span between best and worst should be non-trivial: assignment
	// matters for power.
	span := results[len(results)-1].Watts - results[0].Watts
	if span < 0.5 {
		t.Fatalf("assignment power span only %.3f W", span)
	}
}

func TestBestAssignmentMaxResults(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, feats := testCombined(t, m)
	res, err := cm.BestAssignmentContext(context.Background(), []*FeatureVector{feats["mcf"], feats["vpr"]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
}

func TestBestAssignmentErrors(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, _ := testCombined(t, m)
	if _, err := cm.BestAssignmentContext(context.Background(), nil, 0); err == nil {
		t.Fatal("accepted empty process list")
	}
}

func TestCanonicalChoiceDeduplicates(t *testing.T) {
	groups, scratch := [][]int{{0, 1}}, make([]int, 2)
	// Two processes on two symmetric cores: [0,1] kept, [1,0] dropped.
	if !canonicalChoice([]int{0, 1}, groups, scratch) {
		t.Fatal("canonical arrangement rejected")
	}
	if canonicalChoice([]int{1, 0}, groups, scratch) {
		t.Fatal("mirror arrangement kept")
	}
	// Both on the same core: only core 0 usage is canonical.
	if !canonicalChoice([]int{0, 0}, groups, scratch) {
		t.Fatal("same-core canonical rejected")
	}
	if canonicalChoice([]int{1, 1}, groups, scratch) {
		t.Fatal("empty-then-used core kept")
	}
}

func TestBestAssignmentAgreesWithSimulatedRanking(t *testing.T) {
	// The point of the whole paper: the combined model's preferred
	// assignment really does consume less power than its worst.
	m := machine.FourCoreServer()
	cm, feats := testCombined(t, m)
	procs := []*FeatureVector{feats["mcf"], feats["art"], feats["gzip"], feats["equake"]}
	results, err := cm.BestAssignmentContext(context.Background(), procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	best, worst := results[0], results[len(results)-1]
	measure := func(a Assignment) float64 {
		asg := sim.Assignment{Procs: make([][]*workload.Spec, m.NumCores)}
		for c, fs := range a {
			for _, f := range fs {
				asg.Procs[c] = append(asg.Procs[c], workload.ByName(f.Name))
			}
		}
		res, err := sim.Run(m, asg, sim.Options{Warmup: 3, Duration: 6, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgMeasuredPower()
	}
	mb, mw := measure(best.Assignment), measure(worst.Assignment)
	if mb >= mw {
		t.Fatalf("model's best (%.2f W measured) not below worst (%.2f W measured)", mb, mw)
	}
}

func TestSpreadBaseline(t *testing.T) {
	f := simpleFeature(t)
	asg := SpreadBaseline(2, []*FeatureVector{f, f, f})
	if len(asg[0]) != 2 || len(asg[1]) != 1 {
		t.Fatalf("spread shape %d/%d", len(asg[0]), len(asg[1]))
	}
}

func TestEnergyEstimateFinite(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	cm, feats := testCombined(t, m)
	e, err := cm.EnergyEstimate(Assignment{{feats["mcf"]}, {feats["gzip"]}})
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatalf("energy estimate %v", e)
	}
	idle, err := cm.EnergyEstimate(make(Assignment, m.NumCores))
	if err != nil {
		t.Fatal(err)
	}
	if !isInf(idle) {
		t.Fatalf("idle energy should be infinite, got %v", idle)
	}
}

func isInf(f float64) bool { return f > 1e300 }
