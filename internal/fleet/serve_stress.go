// Sustained-load lane for the sharded serving tier: many concurrent
// clients churning placements and departures against one Sharded fleet,
// timed wall-clock. Where RunStress proves the predicate stages cut
// solver work on a serial trace, RunServeStress proves the sharding
// moved the concurrency ceiling: placement commits on disjoint shards
// proceed in parallel, so throughput scales past the single-lock fleet,
// and the report pins placements/sec and latency percentiles.
//
// The concurrent phase is intentionally nondeterministic (that is the
// point); decision correctness under sharding is pinned separately by
// the 150-seed equivalence sweep, which this harness does not replace.

package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
	"mpmc/internal/xrand"
)

// ServeStressConfig sizes one sustained-load run.
type ServeStressConfig struct {
	// Machines is the fleet size (presets cycle like RunStress);
	// Shards the node-group count; Clients the concurrent churn loops.
	Machines int
	Shards   int
	Clients  int
	// Ops is the total number of placement attempts across all clients.
	Ops int
	// Occupancy is each client's resident budget as a fraction of its
	// share of the fleet's slots (0 = 0.75): at budget, the client
	// retires its own oldest resident before placing again.
	Occupancy float64
	// Workers caps per-solve scoring concurrency (0 = 1: the clients
	// provide the parallelism; per-solve fan-out on top of client
	// concurrency oversubscribes the scheduler without changing any
	// decision).
	Workers int
	// Seed drives each client's workload draw (client i uses Seed+i).
	Seed uint64
}

// ServeStressReport is the measured outcome of one run.
type ServeStressReport struct {
	Machines int `json:"machines"`
	Shards   int `json:"shards"`
	Clients  int `json:"clients"`
	Slots    int `json:"slots"`
	Ops      int `json:"ops"`
	Placed   int `json:"placed"`
	Removed  int `json:"removed"`
	Rejected int `json:"rejected"`
	// Conflicts counts optimistic commits that lost a version race and
	// re-scored (fleet_shard_conflict_total).
	Conflicts uint64  `json:"conflicts"`
	Seconds   float64 `json:"seconds"`
	// PlacementsPerSec is successful placements over wall-clock time —
	// the serving tier's sustained admission throughput.
	PlacementsPerSec float64 `json:"placements_per_sec"`
	// Latency percentiles over individual successful placements.
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	MaxMicros float64 `json:"max_micros"`
}

// RunServeStress builds the sharded fleet and drives the churn.
func RunServeStress(ctx context.Context, cfg ServeStressConfig) (*ServeStressReport, error) {
	if cfg.Machines <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("fleet: serve-stress needs machines and ops, got %d/%d", cfg.Machines, cfg.Ops)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return nil, err
	}
	const maxPerCore = 2
	nodes := make([]NodeConfig, cfg.Machines)
	slots := 0
	for i := range nodes {
		m := stressPresets[i%len(stressPresets)]()
		nodes[i] = NodeConfig{Machine: m, Power: pm, MaxPerCore: maxPerCore}
		slots += maxPerCore * m.NumCores
	}
	s, err := NewSharded(Config{
		Nodes:   nodes,
		Policy:  LeastDegradation,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	}, cfg.Shards)
	if err != nil {
		return nil, err
	}

	pool := workload.Suite()
	// Warm the shared profile cache so the measured loop times placement,
	// not synthetic profiling.
	if err := s.feats.resolve(ctx, pool); err != nil {
		return nil, err
	}

	occ := cfg.Occupancy
	if occ == 0 {
		occ = 0.75
	}
	budget := int(occ * float64(slots) / float64(cfg.Clients))
	if budget < 1 {
		budget = 1
	}
	opsPer := cfg.Ops / cfg.Clients

	type clientStats struct {
		placed, removed, rejected int
		lat                       []time.Duration
		err                       error
	}
	stats := make([]clientStats, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.lat = make([]time.Duration, 0, opsPer)
			r := xrand.New(cfg.Seed + uint64(c))
			type ref struct{ node, name string }
			var own []ref
			for i := 0; i < opsPer; i++ {
				if ctx.Err() != nil {
					st.err = ctx.Err()
					return
				}
				if len(own) >= budget {
					old := own[0]
					own = own[1:]
					if _, err := s.Remove(ctx, old.node, old.name); err != nil {
						st.err = fmt.Errorf("retire %s/%s: %w", old.node, old.name, err)
						return
					}
					st.removed++
				}
				spec := pool[r.Intn(len(pool))]
				t0 := time.Now()
				p, err := s.Place(ctx, spec)
				d := time.Since(t0)
				switch {
				case err == nil:
					st.placed++
					st.lat = append(st.lat, d)
					own = append(own, ref{p.Node, p.Name})
				case errors.Is(err, ErrFleetFull):
					st.rejected++
				default:
					st.err = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &ServeStressReport{
		Machines: cfg.Machines, Shards: cfg.Shards, Clients: cfg.Clients,
		Slots: slots, Ops: opsPer * cfg.Clients, Seconds: elapsed.Seconds(),
	}
	var all []time.Duration
	for c := range stats {
		if stats[c].err != nil {
			return nil, fmt.Errorf("fleet: serve-stress client %d: %w", c, stats[c].err)
		}
		rep.Placed += stats[c].placed
		rep.Removed += stats[c].removed
		rep.Rejected += stats[c].rejected
		all = append(all, stats[c].lat...)
	}
	rep.Conflicts = s.reg.CounterValue("fleet_shard_conflict_total")
	if elapsed > 0 {
		rep.PlacementsPerSec = float64(rep.Placed) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(all)-1))
			return float64(all[i].Microseconds())
		}
		rep.P50Micros = pct(0.50)
		rep.P99Micros = pct(0.99)
		rep.MaxMicros = float64(all[len(all)-1].Microseconds())
	}
	return rep, nil
}
