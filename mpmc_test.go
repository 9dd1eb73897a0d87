package mpmc

import (
	"context"
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the README quick-start path through the
// public API only.
func TestFacadeEndToEnd(t *testing.T) {
	m := TwoCoreWorkstation()
	opts := ProfileOptions{Warmup: 1, Duration: 2, Seed: 7}
	fa, err := Profile(m, WorkloadByName("twolf"), opts)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Profile(m, WorkloadByName("mcf"), ProfileOptions{Warmup: 1, Duration: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := PredictGroup([]*FeatureVector{fa, fb}, m.Assoc, SolverAuto)
	if err != nil {
		t.Fatal(err)
	}
	if s := preds[0].S + preds[1].S; math.Abs(s-float64(m.Assoc)) > 0.2 {
		t.Fatalf("effective sizes sum to %.2f", s)
	}
	// Verify against the substrate.
	res, err := Run(m, SingleAssignment(WorkloadByName("twolf"), WorkloadByName("mcf")),
		SimOptions{Warmup: 2, Duration: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"twolf", "mcf"} {
		meas := res.ProcByName(name)
		if d := math.Abs(preds[i].MPA - meas.MPA()); d > 0.08 {
			t.Errorf("%s MPA predicted %.3f measured %.3f", name, preds[i].MPA, meas.MPA())
		}
	}
}

func TestFacadePresets(t *testing.T) {
	if FourCoreServer().NumCores != 4 || TwoCoreWorkstation().NumCores != 2 || TwoCoreLaptop().Assoc != 12 {
		t.Fatal("machine presets wrong")
	}
	if len(WorkloadSuite()) != 10 || len(ModelSet()) != 8 {
		t.Fatal("workload suite wrong")
	}
	if Stressmark(4) == nil || WorkloadByName("equake") == nil {
		t.Fatal("workload constructors broken")
	}
}

func TestFacadeBaselines(t *testing.T) {
	m := TwoCoreWorkstation()
	fs := []*FeatureVector{
		TruthFeature(WorkloadByName("mcf"), m),
		TruthFeature(WorkloadByName("gzip"), m),
	}
	foa, err := FOA(fs, m.Assoc)
	if err != nil {
		t.Fatal(err)
	}
	sdc, err := SDC(fs, m.Assoc)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := Prob(fs, m.Assoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(foa) != 2 || len(sdc) != 2 || len(prob) != 2 {
		t.Fatal("baseline outputs malformed")
	}
}

func TestFacadePowerPipeline(t *testing.T) {
	m := TwoCoreWorkstation()
	ds, err := CollectPowerDataset(m, ModelSet()[:3], PowerTrainOptions{
		Warmup: 0.5, Duration: 1.5, Seed: 3, MicrobenchWindows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := FitPowerModel(ds)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := TrainNNModel(ds, NNOptions{Seed: 3, Epochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	idle := Rates{}
	if pm.CorePower(idle) <= 0 || nn.CorePower(idle) <= 0 {
		t.Fatal("idle power estimates non-positive")
	}
	cm := NewCombinedModel(m, pm)
	watts, err := cm.EstimateAssignment(ModelAssignment{
		{TruthFeature(WorkloadByName("vpr"), m)}, nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if watts <= 0 {
		t.Fatal("non-positive assignment estimate")
	}
}

func TestFacadeManager(t *testing.T) {
	m := TwoCoreWorkstation()
	pm, err := TrainPowerModel(m, ModelSet()[:3], PowerTrainOptions{
		Warmup: 0.5, Duration: 1.5, Seed: 3, MicrobenchWindows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	f, err := NewFleet(FleetConfig{
		Nodes:  []FleetNode{{Machine: m, Power: pm}},
		Policy: LeastWatts,
		Seed:   9,
		Profile: func(ctx context.Context, m *Machine, w *Workload, opts ProfileOptions) (*FeatureVector, error) {
			runs++
			opts.Warmup, opts.Duration = 1, 2
			return ProfileContext(ctx, m, w, opts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var names []string
	for i := 0; i < 2; i++ {
		p, err := f.Place(ctx, WorkloadByName("vpr"))
		if err != nil {
			t.Fatal(err)
		}
		if p.Name == "" || p.Core < 0 || p.Watts <= 0 {
			t.Fatalf("placement %q/%d/%.2f", p.Name, p.Core, p.Watts)
		}
		names = append(names, p.Name)
	}
	if runs != 1 {
		t.Fatalf("%d profiling runs for two vpr arrivals, want 1", runs)
	}
	for _, name := range names {
		if _, err := f.Remove(ctx, "m0", name); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadePhaseDetection(t *testing.T) {
	series := make([]float64, 200)
	for i := range series {
		if i < 120 {
			series[i] = 0.2
		} else {
			series[i] = 0.7
		}
	}
	segs := DetectPhases(series, PhaseOptions{})
	if len(segs) != 2 {
		t.Fatalf("detected %d phases", len(segs))
	}
	// Boundary detection lags by up to MinLen windows.
	if dom := DominantPhase(segs); dom.Len() < 112 || dom.Len() > 128 {
		t.Fatalf("dominant phase length %d, want ~120", dom.Len())
	}
}
