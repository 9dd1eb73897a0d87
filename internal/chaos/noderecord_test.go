package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

// TestNodeRecordConcurrentOps drives every operation that reads or writes
// a node's resident record at once on a two-shard fleet: placements,
// departures, inspections, state reads, machine loss and recovery,
// rebalancing and a /metrics scrape, which walks every node. Each record
// is guarded by its shard's lock alone, so the race detector (this test
// runs in the -race lane) reports any access that escapes it. At the end
// the fleet must pass every invariant and the resident ledger must
// balance: placed = departed + evicted + resident.
func TestNodeRecordConcurrentOps(t *testing.T) {
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []fleet.NodeConfig
	for i := 0; i < 6; i++ {
		nodes = append(nodes, fleet.NodeConfig{Name: fmt.Sprintf("m%d", i), Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2})
	}
	s, err := fleet.NewSharded(fleet.Config{
		Nodes:  nodes,
		Policy: fleet.LeastDegradation,
		Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var placed, departed, evicted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	const rounds = 40
	var placers sync.WaitGroup
	placersDone := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		placers.Add(1)
		go func() { // placements and departures
			defer wg.Done()
			defer placers.Done()
			var mine []fleet.Placed
			for i := 0; i < rounds; i++ {
				p, err := s.PlaceWith(ctx, workload.ByName(krPool[(g*7+i)%len(krPool)]), fleet.PlaceOptions{Tag: fmt.Sprintf("g%d-%d", g, i)})
				switch {
				case err == nil:
					placed.Add(1)
					mine = append(mine, p)
				case !errors.Is(err, fleet.ErrFleetFull):
					fail(fmt.Errorf("place: %w", err))
					return
				}
				if i%2 == 1 && len(mine) > 0 {
					p, mine = mine[0], mine[1:]
					// A departure finds nothing when the machine failed or a
					// rebalance renamed the instance meanwhile.
					switch _, err := s.Remove(ctx, p.Node, p.Name); {
					case err == nil:
						departed.Add(1)
					case !errors.Is(err, manager.ErrUnknownProcess):
						fail(fmt.Errorf("remove: %w", err))
						return
					}
				}
			}
		}()
	}
	go func() {
		placers.Wait()
		close(placersDone)
	}()
	wg.Add(1)
	go func() { // machine loss and recovery, each time of the fullest machine
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			for placed.Load() < int64(6*(i+1)) {
				select {
				case <-placersDone:
					return
				default:
					runtime.Gosched()
				}
			}
			name, most := "", -1
			for _, ni := range s.Inspect() {
				if len(ni.Residents) > most {
					name, most = ni.Name, len(ni.Residents)
				}
			}
			lost, err := s.FailNode(name)
			if err != nil {
				fail(fmt.Errorf("fail node: %w", err))
				return
			}
			evicted.Add(int64(len(lost)))
			if _, err := s.RestoreNode(ctx, name); err != nil {
				fail(fmt.Errorf("restore node: %w", err))
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // readers and rebalancing
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			s.Inspect()
			if _, err := s.State(ctx); err != nil {
				fail(fmt.Errorf("state: %w", err))
				return
			}
			if err := s.Registry().WriteText(io.Discard); err != nil {
				fail(fmt.Errorf("scrape: %w", err))
				return
			}
			if _, err := s.Rebalance(ctx, 0); err != nil && !errors.Is(err, manager.ErrNoImprovement) {
				fail(fmt.Errorf("rebalance: %w", err))
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if vs := (&Checker{}).CheckFleet(ctx, s.Fleet); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
	resident := int64(Terms(s.Inspect()))
	if placed.Load() != departed.Load()+evicted.Load()+resident {
		t.Fatalf("ledger: placed %d != departed %d + evicted %d + resident %d",
			placed.Load(), departed.Load(), evicted.Load(), resident)
	}
	t.Logf("placed %d, departed %d, evicted %d, resident %d", placed.Load(), departed.Load(), evicted.Load(), resident)
}
