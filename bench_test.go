package mpmc

// One benchmark per table and figure of the paper's evaluation, plus the
// DESIGN.md ablations. Each benchmark regenerates its artifact through the
// experiment harness and reports the headline error metric alongside the
// timing, so `go test -bench=. -benchmem` both reproduces and profiles the
// evaluation.
//
// Heavy experiments run once per benchmark invocation (they exceed the
// default benchtime on the first iteration); the shared context amortizes
// profiling and power-model training across benchmarks the way the paper's
// methodology amortizes them across experiments.

import (
	"context"
	"sync"
	"testing"

	"mpmc/internal/exp"
	"mpmc/internal/machine"
)

var (
	benchOnce sync.Once
	benchCtx  *exp.Context
)

func benchContext() *exp.Context {
	benchOnce.Do(func() {
		benchCtx = exp.NewContext(exp.Config{Quick: true, Seed: 42})
	})
	return benchCtx
}

// BenchmarkTable1 regenerates E1: performance-model validation on the
// 4-core server (paper: 1.76% avg MPA error, 3.38% avg SPI error).
func BenchmarkTable1(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.Table1(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgMPAErr(), "avgMPApts")
		b.ReportMetric(r.AvgSPIErr(), "avgSPI%")
	}
}

// BenchmarkPerfSecondMachine regenerates E2: the 55-pair validation on
// the 2-core laptop (paper: 1.57% avg SPI error).
func BenchmarkPerfSecondMachine(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.PerfSecondMachine(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSPIErr(), "avgSPI%")
	}
}

// BenchmarkFigure2 regenerates E3: sample-based power traces for the
// max- and min-power assignments (paper: 2.46% / 2.51% avg errors).
func BenchmarkFigure2(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure2(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MaxErr, "maxAsgErr%")
		b.ReportMetric(r.MinErr, "minAsgErr%")
	}
}

// BenchmarkTable2 regenerates E4: power-model validation on the 2-core
// workstation (paper: 5.32%/6.65% sample, 3.63%/2.47% average errors).
func BenchmarkTable2(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.Table2(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Scenarios[0].SampleAvgErr, "s1sample%")
		b.ReportMetric(r.Scenarios[1].SampleAvgErr, "s2sample%")
	}
}

// BenchmarkTable3 regenerates E5: power-model validation on the 4-core
// server (paper: 4.09%/5.51%/3.39% sample errors).
func BenchmarkTable3(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.Table3(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Scenarios[0].SampleAvgErr, "s1sample%")
	}
}

// BenchmarkTable4 regenerates E6: combined-model validation on the 4-core
// server (paper: avg errors 0.49–2.84% across the five scenarios).
func BenchmarkTable4(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.Table4(x)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, s := range r.Scenarios {
			if s.AvgErr > worst {
				worst = s.AvgErr
			}
		}
		b.ReportMetric(worst, "worstAvgErr%")
	}
}

// BenchmarkPrefetchStudy regenerates E7 (paper: 3.25% average speedup,
// only equake significant).
func BenchmarkPrefetchStudy(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.PrefetchStudy(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgPct, "avgSpeedup%")
	}
}

// BenchmarkMVLRvsNN regenerates E8 (paper: 96.2% vs 96.8%).
func BenchmarkMVLRvsNN(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.MVLRvsNN(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MVLRAcc, "mvlrAcc%")
		b.ReportMetric(r.NNAcc, "nnAcc%")
	}
}

// BenchmarkContextSwitch regenerates E9 (paper: refill ≈ 1% of a
// timeslice).
func BenchmarkContextSwitch(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.ContextSwitchStudy(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RefillPct, "refill%")
	}
}

// BenchmarkSolverAblation compares the Eq. 7 Newton–Raphson solver to the
// scalar-window bisection (DESIGN.md ablation).
func BenchmarkSolverAblation(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.SolverAblation(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.NewtonFailures), "newtonFails")
		b.ReportMetric(r.MaxSizeDelta, "maxΔways")
	}
}

// BenchmarkProfilingAblation compares stressmark profiling against the
// ideal way partitioner.
func BenchmarkProfilingAblation(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ProfilingAblation(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerAblation refits Eq. 9 without the L2MPS regressor.
func BenchmarkPowerAblation(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.PowerAblation(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullAcc-r.NoMissAcc, "L2MPSgain%")
	}
}

// BenchmarkBaselineComparison scores the equilibrium model against
// Chandra FOA/SDC on measured pairwise co-runs.
func BenchmarkBaselineComparison(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.BaselineComparison(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OursPct, "oursMPApts")
		b.ReportMetric(r.FOAPct, "foaMPApts")
	}
}

// benchProcs returns the truth features of the first k of six fixed suite
// benchmarks on m: a contended co-run group from k = 2 up.
func benchProcs(m *Machine, k int) []*FeatureVector {
	names := []string{"mcf", "art", "gzip", "vpr", "twolf", "equake"}
	fs := make([]*FeatureVector, k)
	for i := range fs {
		fs[i] = TruthFeature(WorkloadByName(names[i]), m)
	}
	return fs
}

// BenchmarkEquilibriumSolve measures one cold equilibrium solve of k
// processes sharing the server's cache. newton is what SolverAuto — the
// assignment search and the placement service — runs when it converges;
// window is the bisection it falls back to.
func BenchmarkEquilibriumSolve(b *testing.B) {
	m := FourCoreServer()
	for _, bc := range []struct {
		name   string
		method SolverMethod
		k      int
	}{
		{"newton/k2", SolverNewton, 2}, {"newton/k3", SolverNewton, 3},
		{"newton/k4", SolverNewton, 4}, {"newton/k6", SolverNewton, 6},
		{"window/k2", SolverWindow, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fs := benchProcs(m, bc.k)
			// Warm the G tables.
			if _, err := PredictGroup(fs, m.Assoc, bc.method); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PredictGroup(fs, m.Assoc, bc.method); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCombinedEstimate measures one assignment power estimate.
func BenchmarkCombinedEstimate(b *testing.B) {
	m := TwoCoreWorkstation()
	pm, err := TrainPowerModel(m, ModelSet(), PowerTrainOptions{Warmup: 0.5, Duration: 1, Seed: 1, MicrobenchWindows: 2})
	if err != nil {
		b.Fatal(err)
	}
	cm := NewCombinedModel(m, pm)
	asg := ModelAssignment{
		{TruthFeature(WorkloadByName("mcf"), m), TruthFeature(WorkloadByName("vpr"), m)},
		{TruthFeature(WorkloadByName("gzip"), m)},
	}
	if _, err := cm.EstimateAssignment(asg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.EstimateAssignment(asg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssumptionStudy quantifies model degradation under PLRU
// replacement and multi-phase processes (Section 3.1's assumptions).
func BenchmarkAssumptionStudy(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.AssumptionStudy(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PLRUErrPct, "plruMPApts")
		b.ReportMetric(r.MultiPhaseErrPct, "phaseMPApts")
	}
}

// BenchmarkProfileOne measures one full stressmark profiling sweep.
func BenchmarkProfileOne(b *testing.B) {
	m := TwoCoreWorkstation()
	for i := 0; i < b.N; i++ {
		if _, err := Profile(m, WorkloadByName("twolf"), ProfileOptions{
			Warmup: 1, Duration: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignmentSearch measures the exhaustive search of k processes
// on the two four-core presets, asking for the winner alone. server-k4 is
// 72 canonical placements, made of 41 distinct group layouts and 13 co-run
// combinations (4 solo, 9 contended), each solved once per search; k = 6
// is 1056 placements over 365 layouts and 31 combinations. server-k6-top3
// asks for the best three, which a bounded heap selects; server-k6-all asks
// for the whole ranking, as cmd/assign does, and so also sorts and builds
// all 1056 assignments.
func BenchmarkAssignmentSearch(b *testing.B) {
	type run struct {
		name       string
		k          int
		maxResults int
	}
	for _, preset := range []struct {
		name    string
		machine *Machine
		runs    []run
	}{
		{"server", FourCoreServer(), []run{{"k4", 4, 1}, {"k5", 5, 1}, {"k6", 6, 1}, {"k6-top3", 6, 3}, {"k6-all", 6, 0}}},
		{"little", machine.FourCoreLittle(), []run{{"k4", 4, 1}, {"k5", 5, 1}, {"k6", 6, 1}}},
	} {
		m := preset.machine
		pm, err := TrainPowerModel(m, ModelSet(), PowerTrainOptions{
			Warmup: 0.5, Duration: 1, Seed: 1, MicrobenchWindows: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		cm := NewCombinedModel(m, pm)
		for _, r := range preset.runs {
			b.Run(preset.name+"-"+r.name, func(b *testing.B) {
				procs := benchProcs(m, r.k)
				if _, err := cm.BestAssignmentContext(context.Background(), procs, r.maxResults); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cm.BestAssignmentContext(context.Background(), procs, r.maxResults); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSensitivitySweep measures model error across cache geometries
// (4–24 ways).
func BenchmarkSensitivitySweep(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.SensitivitySweep(x)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, v := range r.MPAErrPct {
			if v > worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "worstMPApts")
	}
}

// BenchmarkHeteroStudy validates the heterogeneous-processor adjustment
// (contribution 4 of the paper).
func BenchmarkHeteroStudy(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.HeteroStudy(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AdjustedErrPct, "adjSPIerr%")
		b.ReportMetric(r.NaiveErrPct, "naiveSPIerr%")
	}
}

// benchProfile runs one stressmark profiling sweep at the given worker
// count; the serial/parallel pair below measures the wall-clock effect of
// fanning the per-way sweep out (results are bit-identical either way —
// see TestProfileEquivalence).
func benchProfile(b *testing.B, workers int) {
	b.Helper()
	m := TwoCoreWorkstation()
	for i := 0; i < b.N; i++ {
		if _, err := Profile(m, WorkloadByName("twolf"), ProfileOptions{
			Warmup: 1, Duration: 2, Seed: uint64(i), Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileSerial is the Workers=1 baseline for the sweep.
func BenchmarkProfileSerial(b *testing.B) { benchProfile(b, 1) }

// BenchmarkProfileParallel runs the same sweep at Workers=4. On a
// multi-core host this approaches a 4x speedup (the sweep points are
// independent); on a single-CPU host it only measures pool overhead.
func BenchmarkProfileParallel(b *testing.B) { benchProfile(b, 4) }

// benchHarness regenerates the seed-stability study (20 co-run
// simulations) through a fresh experiment context at the given worker
// count — the harness-level counterpart to the profiling pair above.
func benchHarness(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		x := exp.NewContext(exp.Config{Quick: true, Seed: 42, Workers: workers})
		if _, err := exp.SeedStability(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessSerial is the Workers=1 baseline for the experiment
// harness fan-out.
func BenchmarkHarnessSerial(b *testing.B) { benchHarness(b, 1) }

// BenchmarkHarnessParallel runs the same study at Workers=4; output is
// byte-identical to serial (see TestStudyEquivalence).
func BenchmarkHarnessParallel(b *testing.B) { benchHarness(b, 4) }

// BenchmarkBandwidthStudy measures model degradation under memory-bus
// saturation (the Section 3.1 bandwidth-constrained regime).
func BenchmarkBandwidthStudy(b *testing.B) {
	x := benchContext()
	for i := 0; i < b.N; i++ {
		r, err := exp.BandwidthStudy(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SPIErrPct[len(r.SPIErrPct)-1], "satSPIerr%")
	}
}
