package core

import (
	"context"
	"math"
	"testing"

	"mpmc/internal/hist"
	"mpmc/internal/machine"
	"mpmc/internal/sim"
	"mpmc/internal/workload"
	"mpmc/internal/xrand"
)

// fastOpts keeps unit-test profiling runs short; experiment harnesses use
// the longer defaults.
var fastOpts = ProfileOptions{Warmup: 1.5, Duration: 3, Seed: 99}

func TestProfileStressmarkRecoversMPACurve(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	for _, name := range []string{"vpr", "mcf"} {
		spec := workload.ByName(name)
		f, err := Profile(context.Background(), m, spec, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		// The measured curve should track the analytic one. The
		// stressmark is not a perfect partitioner, so tolerate a few
		// percent absolute.
		for s := 1; s <= m.Assoc; s++ {
			want := spec.EffectiveMPA(float64(s))
			got := f.MPACurve[s]
			if math.Abs(got-want) > 0.08 {
				t.Errorf("%s: MPA(%d) measured %.4f analytic %.4f", name, s, got, want)
			}
		}
		// API must match the spec's L2RPI.
		if math.Abs(f.API-spec.L2RPI)/spec.L2RPI > 0.01 {
			t.Errorf("%s: API %.5f want %.5f", name, f.API, spec.L2RPI)
		}
		// Power-profiling vector populated.
		if f.PAloneProcessor <= 0 {
			t.Errorf("%s: missing PAlone", name)
		}
	}
}

func TestProfileIdealIsMoreAccurate(t *testing.T) {
	// The ideal partitioner should track the analytic curve tighter than
	// the stressmark on average — the profiling ablation's premise.
	m := machine.TwoCoreWorkstation()
	spec := workload.ByName("twolf")
	stress, err := Profile(context.Background(), m, spec, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Profile(context.Background(), m, spec, ProfileOptions{Warmup: 1.5, Duration: 3, Seed: 99, Method: ProfileIdeal})
	if err != nil {
		t.Fatal(err)
	}
	var errStress, errIdeal float64
	for s := 1; s <= m.Assoc; s++ {
		want := spec.EffectiveMPA(float64(s))
		errStress += math.Abs(stress.MPACurve[s] - want)
		errIdeal += math.Abs(ideal.MPACurve[s] - want)
	}
	if errIdeal > errStress+0.02 {
		t.Fatalf("ideal profiling (%.4f) worse than stressmark (%.4f)", errIdeal, errStress)
	}
	if errIdeal/float64(m.Assoc) > 0.02 {
		t.Fatalf("ideal profiling average error %.4f too high", errIdeal/float64(m.Assoc))
	}
}

func TestProfileRecoverEq3(t *testing.T) {
	// α and β from the sweep must predict SPI well across the operating
	// range of the process.
	m := machine.TwoCoreWorkstation()
	spec := workload.ByName("mcf")
	f, err := Profile(context.Background(), m, spec, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Probe within mcf's operating range on this machine (its MPA spans
	// roughly 0.84 at 8 ways to 0.97 at 1 way); Eq. 3 is a local model
	// and is only ever evaluated at predicted operating points.
	for _, mpa := range []float64{0.85, 0.9, 0.95} {
		want := spec.TrueSPI(m.MemLatency, m.MLPOverlap, mpa)
		got := f.SPI(mpa)
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("SPI(%.2f) = %.4g want %.4g", mpa, got, want)
		}
	}
}

func TestProfiledPredictionEndToEnd(t *testing.T) {
	// The full paper pipeline in miniature: profile two processes with the
	// stressmark, predict their co-run, verify against simulation.
	m := machine.TwoCoreWorkstation()
	a := workload.ByName("twolf")
	b := workload.ByName("art")
	fa, err := Profile(context.Background(), m, a, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Profile(context.Background(), m, b, ProfileOptions{Warmup: 1.5, Duration: 3, Seed: 111})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := PredictGroup([]*FeatureVector{fa, fb}, m.Assoc, SolverAuto)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, sim.Single(a, b), sim.Options{Warmup: 3, Duration: 6, Seed: 321})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"twolf", "art"} {
		meas := res.ProcByName(name)
		if d := math.Abs(preds[i].MPA - meas.MPA()); d > 0.06 {
			t.Errorf("%s: MPA predicted %.4f measured %.4f", name, preds[i].MPA, meas.MPA())
		}
		if rel := math.Abs(preds[i].SPI-meas.SPI()) / meas.SPI(); rel > 0.08 {
			t.Errorf("%s: SPI predicted %.4g measured %.4g (%.1f%%)",
				name, preds[i].SPI, meas.SPI(), rel*100)
		}
	}
}

func TestEq3FitFallbacks(t *testing.T) {
	// Flat MPA curve: slope has no leverage; the fit must stay sane.
	alpha, beta := eq3Fit([]float64{0.5, 0.5, 0.5}, []float64{2e-6, 2e-6, 2e-6})
	if beta <= 0 {
		t.Fatal("flat-curve fallback produced non-positive beta")
	}
	if got := alpha*0.5 + beta; math.Abs(got-2e-6)/2e-6 > 0.01 {
		t.Fatalf("flat-curve fit off at operating point: %v", got)
	}
	// Negative measured slope (noise): clamp to zero.
	alpha, beta = eq3Fit([]float64{0.2, 0.4, 0.6}, []float64{3e-6, 2.5e-6, 2e-6})
	if alpha != 0 || beta <= 0 {
		t.Fatalf("negative-slope fallback: alpha=%v beta=%v", alpha, beta)
	}
}

func TestProfileUnknownMethod(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	_, err := Profile(context.Background(), m, workload.ByName("gzip"), ProfileOptions{Method: ProfileMethod(9)})
	if err == nil {
		t.Fatal("accepted unknown method")
	}
}

func TestDominantPhaseProfiling(t *testing.T) {
	// A process that spends 3/4 of its accesses in a small-working-set
	// phase and 1/4 in a broad one. Whole-run profiling recovers the
	// mixture; dominant-phase profiling (Section 6.1's "the longest
	// phases ... were used") recovers the small phase.
	m := machine.TwoCoreWorkstation()
	small := hist.MustNew([]float64{0.55, 0.30, 0.10}, 0.05)
	broad := hist.MustNew(
		[]float64{0.07, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07}, 0.44)
	maxD := broad.MaxDistance()
	weights := make([]float64, maxD)
	for d := 1; d <= maxD; d++ {
		weights[d-1] = 0.75*small.P(d) + 0.25*broad.P(d)
	}
	mix := hist.MustNew(weights, 0.75*small.Overflow()+0.25*broad.Overflow())
	spec := &workload.Spec{
		Name: "phasedprobe", Reuse: mix, FootprintCap: 48,
		L2RPI: 0.03, L1RPI: 0.45, BRPI: 0.15, FPPI: 0.05, BaseSPI: 1e-6,
		Phases: []workload.PhaseSpec{
			// ~75%/25% of accesses; phase lengths well above the 30 ms
			// sampling window so the detector can see them.
			{Reuse: small, Accesses: 60000},
			{Reuse: broad, Accesses: 20000},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	whole, err := Profile(context.Background(), m, spec, ProfileOptions{Warmup: 2, Duration: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dom, err := Profile(context.Background(), m, spec, ProfileOptions{Warmup: 2, Duration: 12, Seed: 5, DominantPhase: true})
	if err != nil {
		t.Fatal(err)
	}
	// Compare both curves against the small phase's analytic curve.
	var errWhole, errDom float64
	for s := 1; s <= m.Assoc; s++ {
		want := small.MPA(float64(s))
		errWhole += math.Abs(whole.MPACurve[s] - want)
		errDom += math.Abs(dom.MPACurve[s] - want)
	}
	if errDom >= errWhole {
		t.Fatalf("dominant-phase curve (%.3f) no closer to the small phase than whole-run (%.3f)",
			errDom, errWhole)
	}
}

func TestProfileNeedsPartnerCore(t *testing.T) {
	// A single-core machine cannot host the stressmark co-run.
	solo := machine.TwoCoreWorkstation()
	solo.NumCores = 1
	solo.Groups = [][]int{{0}}
	if err := solo.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Profile(context.Background(), solo, workload.ByName("gzip"), fastOpts); err == nil {
		t.Fatal("profiling without a partner core should fail")
	}
}

func TestGRecursionMatchesMonteCarlo(t *testing.T) {
	// Independent validation of Eqs. 4–5: simulate the filling process
	// directly — draw hit/miss per access from MPA(current size) — and
	// compare the empirical mean size after n accesses with G(n).
	curve := []float64{1, 0.55, 0.35, 0.22, 0.15, 0.1, 0.07, 0.05, 0.04}
	f, err := NewFeatureVector("mc", curve, 1e-6, 1e-6, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(77)
	const trials = 20000
	for _, n := range []int{1, 3, 10, 40, 150} {
		sum := 0.0
		for tr := 0; tr < trials; tr++ {
			size := 0
			for acc := 0; acc < n; acc++ {
				mpa := f.Hist.MPA(float64(size))
				if size == 0 || (size < f.Assoc && r.Float64() < mpa) {
					size++
				}
			}
			sum += float64(size)
		}
		emp := sum / trials
		if got := f.G(float64(n)); math.Abs(got-emp) > 0.03 {
			t.Errorf("G(%d) = %.4f, Monte Carlo %.4f", n, got, emp)
		}
	}
}

// BenchmarkProfileSweep is one round of the profile_sweep workload: a
// stressmark sweep of every suite benchmark on the workstation and on the
// server, at 0.075 s warm-up and 0.15 s per run, one run at a time. Almost
// all of it is sim.Run, so it is the place to profile the simulator:
//
//	go test -run=NONE -bench=ProfileSweep -cpuprofile cpu.prof ./internal/core
func BenchmarkProfileSweep(b *testing.B) {
	machines := []*machine.Machine{machine.TwoCoreWorkstation(), machine.FourCoreServer()}
	suite := workload.Suite()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, m := range machines {
			for _, spec := range suite {
				opts := ProfileOptions{Warmup: 0.075, Duration: 0.15, Seed: ProfileSeed(uint64(i)+1, spec.Name), Workers: 1}
				if _, err := Profile(ctx, m, spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
