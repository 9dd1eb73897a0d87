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

// benchFleetPlace times cycle — one placement and one removal against a
// warm fleet — reporting the p99 and the executed Eq. 10 group passes per
// cycle: what the memo stack, the predicates and the scorer exist to keep
// down.
func benchFleetPlace(b *testing.B, f *Fleet, cycle func() error) {
	lat := make([]time.Duration, 0, b.N)
	passes := f.SolverInvocations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	b.ReportMetric(float64(f.SolverInvocations()-passes)/float64(b.N), "passes/op")
	reportP99(b, lat)
}

// benchFleetPlaceSmall is the warm 4-machine fleet with a steady
// background load: every cycle places mcf and removes it again, scoring
// every (machine, core) slot.
func benchFleetPlaceSmall(b *testing.B, policy Policy, mutate func(*Config)) {
	ctx := context.Background()
	f := testFleet(b, policy, mutate)
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		b.Fatal(err)
	}
	spec := workload.ByName("mcf")
	benchFleetPlace(b, f, func() error {
		p, err := f.Place(ctx, spec)
		if err != nil {
			return err
		}
		_, err = f.Remove(ctx, p.Node, p.Name)
		return err
	})
}

// BenchmarkFleetPlace is the default configuration (score cache on). The
// acceptance number for the caching layer is this benchmark's p99 against
// BenchmarkFleetPlaceCold's.
func BenchmarkFleetPlace(b *testing.B) { benchFleetPlaceSmall(b, LeastDegradation, nil) }

// BenchmarkFleetPlaceScale is the benchmark's fleet_sim configuration
// (scaleFleet): every cycle retires the oldest resident and places the
// next arrival of the seeded stream.
func BenchmarkFleetPlaceScale(b *testing.B) {
	ctx := context.Background()
	f, fifo, next := scaleFleet(b)
	benchFleetPlace(b, f, func() error {
		old := fifo[0]
		fifo = fifo[1:]
		if _, err := f.Remove(ctx, old.Node, old.Name); err != nil {
			return err
		}
		p, err := f.Place(ctx, next())
		fifo = append(fifo, p)
		return err
	})
}

// BenchmarkFleetPlaceCold disables the score cache: every iteration
// re-solves every group. This is the pre-cache cost and the denominator
// of the speedup claim.
func BenchmarkFleetPlaceCold(b *testing.B) {
	benchFleetPlaceSmall(b, LeastDegradation, func(c *Config) { c.ScoreCacheCap = -1 })
}

// BenchmarkFleetPlaceCapAware is the budget-constrained placement path:
// cap-aware scoring scans every (core, frequency-state) slot against the
// live ledger headroom and never uses the decision memo, so this is the
// policy's true per-arrival cost under an active cap.
func BenchmarkFleetPlaceCapAware(b *testing.B) {
	benchFleetPlaceSmall(b, CapAware, func(c *Config) { c.PowerCap = 1e9 })
}

// BenchmarkFleetPlaceCapAwareCold is the same path with no memo of any
// kind (ScoreCacheCap −1), the way the benchmark's serve_cold workload runs
// the service: every decision pays its Eq. 10 group passes in full, so this
// is the micro twin of that workload's per-placement cost.
func BenchmarkFleetPlaceCapAwareCold(b *testing.B) {
	benchFleetPlaceSmall(b, CapAware, func(c *Config) { c.PowerCap, c.ScoreCacheCap = 1e9, -1 })
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
