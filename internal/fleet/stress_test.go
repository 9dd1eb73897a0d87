package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func renderStress(t testing.TB, rep *StressReport) []byte {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestStressSmokeGolden is the scale-smoke gate CI runs under -short: a
// 100-machine, 50k-arrival predicated churn whose full decision stream —
// digested per placement — must be byte-identical to the checked-in
// golden at both worker counts.
func TestStressSmokeGolden(t *testing.T) {
	golden := filepath.Join("testdata", "stress_smoke.json")
	cfg := StressConfig{Machines: 100, Arrivals: 50_000, Predicated: true, Seed: 1}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		rep, err := RunStress(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderStress(t, rep)
		if *updateGolden && workers == 1 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			dump := golden + fmt.Sprintf(".got-w%d.json", workers)
			os.WriteFile(dump, got, 0o644)
			t.Fatalf("workers=%d: stress report differs from golden; wrote %s", workers, dump)
		}
	}
}

// TestStressPredicateCutsSolverCalls pins the scale claim: on the same
// trace, the predicated pipeline (FreeSlot + PerCoreCap + MaxFeasible 8)
// must reach its decisions with at least 10× fewer equilibrium solves
// than score-everything. Both runs solve cold so SolverInvocations counts
// every scored candidate exactly, with no cache-eviction noise.
func TestStressPredicateCutsSolverCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-cut ratio runs in the full suite")
	}
	ctx := context.Background()
	cfg := StressConfig{Machines: 150, Arrivals: 300, ColdScore: true, Seed: 7}
	base, err := RunStress(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predicated = true
	pred, err := RunStress(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pred.SolverInvocations == 0 {
		t.Fatal("predicated run never consulted the solver — the pipeline is not scoring at all")
	}
	ratio := float64(base.SolverInvocations) / float64(pred.SolverInvocations)
	t.Logf("solver invocations: score-everything %d, predicated %d (%.1fx cut)",
		base.SolverInvocations, pred.SolverInvocations, ratio)
	if ratio < 10 {
		t.Fatalf("predicates cut solver calls only %.1fx (everything %d, predicated %d); the scale lane demands >= 10x",
			ratio, base.SolverInvocations, pred.SolverInvocations)
	}
	if base.Placed != base.Arrivals || pred.Placed != pred.Arrivals {
		t.Fatalf("churn at 0.75 occupancy must place every arrival (everything %d/%d, predicated %d/%d)",
			base.Placed, base.Arrivals, pred.Placed, pred.Arrivals)
	}
}

// TestStressWorkerAndCacheInvariance: the stress decision stream must not
// depend on concurrency or caching — the same laws the fleet goldens pin,
// restated on the scale pipeline.
func TestStressWorkerAndCacheInvariance(t *testing.T) {
	ctx := context.Background()
	cfg := StressConfig{Machines: 30, Arrivals: 400, Predicated: true, Seed: 11}
	ref, err := RunStress(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []StressConfig{
		{Machines: 30, Arrivals: 400, Predicated: true, Seed: 11, Workers: 3},
		{Machines: 30, Arrivals: 400, Predicated: true, Seed: 11, ColdScore: true},
	} {
		rep, err := RunStress(ctx, variant)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DecisionDigest != ref.DecisionDigest || rep.FinalSPI != ref.FinalSPI {
			t.Fatalf("variant %+v diverged: digest %s vs %s, SPI %v vs %v",
				variant, rep.DecisionDigest, ref.DecisionDigest, rep.FinalSPI, ref.FinalSPI)
		}
	}
}

func TestStressRejectsBadConfig(t *testing.T) {
	if _, err := RunStress(context.Background(), StressConfig{}); err == nil {
		t.Fatal("empty stress config accepted")
	}
}

// benchStress is the benchstat lane: b.N full runs of one configuration,
// reporting arrivals/sec and the solver-invocation count as metrics.
func benchStress(b *testing.B, cfg StressConfig) {
	b.Helper()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rep, err := RunStress(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.SolverInvocations), "solves")
		b.ReportMetric(float64(rep.SolverInvocations)/float64(rep.Arrivals), "solves/arrival")
	}
}

// BenchmarkFleetStress is the small benchstat-friendly stress point:
// every iteration is a whole churn run, so run it at -benchtime 1x.
func BenchmarkFleetStress(b *testing.B) {
	benchStress(b, StressConfig{Machines: 100, Arrivals: 10_000, Predicated: true, Seed: 1})
}

// BenchmarkFleetStressFull is the headline scalability number: a
// 1000-machine fleet churning through 1,000,000 arrivals behind the
// predicated pipeline. Run it on its own at -benchtime 1x with a long
// -timeout; an iteration takes minutes.
func BenchmarkFleetStressFull(b *testing.B) {
	benchStress(b, StressConfig{Machines: 1000, Arrivals: 1_000_000, Predicated: true, Seed: 1})
}
