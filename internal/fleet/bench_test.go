package fleet

import (
	"context"
	"sort"
	"testing"
	"time"

	"mpmc/internal/workload"
)

// reportP99 records the 99th-percentile per-iteration latency as a
// benchstat-friendly metric: the score cache makes the *tail* the
// interesting number (a steady stream of hits with the occasional cold
// solve), and a mean would bury the misses.
func reportP99(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns/op")
}

// benchFleetPlace drives one place/remove cycle against a warm 4-machine
// fleet: the cost of scoring every (machine, core) slot with the
// equilibrium solver, which is the fleet scheduler's hot path.
func benchFleetPlace(b *testing.B, policy Policy, mutate func(*Config)) {
	ctx := context.Background()
	f := testFleet(b, policy, mutate)
	// Steady background load and a warm feature cache.
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		b.Fatal(err)
	}
	spec := workload.ByName("mcf")
	if err := f.resolveFeatures(ctx, []*workload.Spec{spec}); err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, 0, b.N)
	passes := f.SolverInvocations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		p, err := f.Place(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	// Executed Eq. 10 group passes per place/remove cycle: what the memo
	// stack, the predicates and the scorer exist to keep down.
	b.ReportMetric(float64(f.SolverInvocations()-passes)/float64(b.N), "passes/op")
	reportP99(b, lat)
}

// BenchmarkFleetPlace is the default configuration (score cache on). The
// acceptance number for the caching layer is this benchmark's p99 against
// BenchmarkFleetPlaceCold's.
func BenchmarkFleetPlace(b *testing.B) { benchFleetPlace(b, LeastDegradation, nil) }

// BenchmarkFleetPlaceCold disables the score cache: every iteration
// re-solves every group. This is the pre-cache cost and the denominator
// of the speedup claim.
func BenchmarkFleetPlaceCold(b *testing.B) {
	benchFleetPlace(b, LeastDegradation, func(c *Config) { c.ScoreCacheCap = -1 })
}

// BenchmarkFleetPlaceCapAware is the budget-constrained placement path:
// cap-aware scoring scans every (core, frequency-state) slot against the
// live ledger headroom and never uses the decision memo, so this is the
// policy's true per-arrival cost under an active cap.
func BenchmarkFleetPlaceCapAware(b *testing.B) {
	benchFleetPlace(b, CapAware, func(c *Config) { c.PowerCap = 1e9 })
}

// BenchmarkFleetPlaceCapAwareCold is the same path with no memo of any
// kind (ScoreCacheCap −1), the way the benchmark's serve_cold workload runs
// the service: every decision pays its Eq. 10 group passes in full, so this
// is the micro twin of that workload's per-placement cost.
func BenchmarkFleetPlaceCapAwareCold(b *testing.B) {
	benchFleetPlace(b, CapAware, func(c *Config) { c.PowerCap, c.ScoreCacheCap = 1e9, -1 })
}

// BenchmarkFleetRebalance measures one full cross-machine rebalance scan
// (the pass is dominated by candidate scoring; the chosen move is never
// executed because the threshold is prohibitive).
func BenchmarkFleetRebalance(b *testing.B) {
	ctx := context.Background()
	f := testFleet(b, LeastDegradation, nil)
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Rebalance(ctx, 1e9); err == nil {
			b.Fatal("expected no-improvement sentinel")
		}
	}
}
