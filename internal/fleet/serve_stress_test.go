package fleet

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestServeStressThroughput drives the sustained-load scenario and checks
// that the churn balances its books and keeps an interactive tail. The
// placements/sec figure is logged, not asserted: it depends on what else
// the machine is running (tier-1 schedules this beside internal/exp), and
// throughput regressions are the benchmark's to catch (cpu_us_per_op,
// loadgen.sat_ops_per_s) over paired runs.
func TestServeStressThroughput(t *testing.T) {
	cfg := ServeStressConfig{Machines: 24, Shards: 4, Clients: 8, Ops: 40000, Seed: 1}
	if testing.Short() {
		cfg.Ops = 2000
	}
	rep, err := RunServeStress(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(rep)
	t.Logf("serve-stress: %s", b)
	t.Logf("sustained %.0f placements/sec (race=%v, procs=%d)", rep.PlacementsPerSec, raceEnabled, runtime.GOMAXPROCS(0))
	if rep.Placed+rep.Rejected != rep.Ops {
		t.Errorf("ledger: placed %d + rejected %d != ops %d", rep.Placed, rep.Rejected, rep.Ops)
	}
	if rep.Placed == 0 {
		t.Fatal("no placements committed")
	}
	if testing.Short() {
		return // smoke: correctness of the churn only
	}
	// Bounded tail: p99 placement latency stays in interactive territory.
	p99Bound := 50_000.0 // µs
	if raceEnabled {
		p99Bound = 500_000
	}
	if rep.P99Micros > p99Bound {
		t.Errorf("p99 %.0fµs exceeds %.0fµs bound", rep.P99Micros, p99Bound)
	}
}

// TestServeStressSingleShardMatchesSharded reruns the identical churn
// trace single-client on one shard and on four and verifies both sustain
// the same final ledger (every op placed) — the concurrency-free
// projection of the equivalence sweep onto the serve-stress harness.
func TestServeStressSingleShardMatchesSharded(t *testing.T) {
	var placed [2]int
	for i, shards := range []int{1, 4} {
		rep, err := RunServeStress(context.Background(), ServeStressConfig{
			Machines: 12, Shards: shards, Clients: 1, Ops: 1500, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		placed[i] = rep.Placed
		if rep.Placed+rep.Rejected != rep.Ops {
			t.Errorf("shards=%d: placed %d + rejected %d != ops %d", shards, rep.Placed, rep.Rejected, rep.Ops)
		}
	}
	if placed[0] != placed[1] {
		t.Errorf("placed diverged: 1 shard %d vs 4 shards %d", placed[0], placed[1])
	}
}

// BenchmarkServeSustained is the sustained-load lane: one sustained
// churn of b.N placements across the stress scenario, reporting
// placements/sec and the latency tail as benchmark metrics.
func BenchmarkServeSustained(b *testing.B) {
	rep, err := RunServeStress(context.Background(), ServeStressConfig{
		Machines: 24, Shards: 4, Clients: 8, Ops: b.N, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.PlacementsPerSec, "placements/s")
	b.ReportMetric(rep.P50Micros, "p50-µs")
	b.ReportMetric(rep.P99Micros, "p99-µs")
	b.ReportMetric(float64(rep.Conflicts), "conflicts")
}
