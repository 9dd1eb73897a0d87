package fleet_test

// Short-lane coverage of the sharded serving surface: the read-side
// accessors, the queue pump's fast/slow/preempt paths, node lifecycle,
// and the WAL journal→recover round trip, all deterministic (no races,
// no wall-clock) so they run in -short where the heavy equivalence
// sweeps skip.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// surfaceFleet builds a deterministic sharded fleet over truth-table
// features; mutate adjusts the config before construction.
func surfaceFleet(t *testing.T, machines, shards int, mutate func(*fleet.Config)) *fleet.Sharded {
	t.Helper()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []fleet.NodeConfig
	for i := 0; i < machines; i++ {
		nodes = append(nodes, fleet.NodeConfig{
			Name: fmt.Sprintf("m%d", i), Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1,
		})
	}
	cfg := fleet.Config{
		Nodes:    nodes,
		Policy:   fleet.LeastDegradation,
		QueueCap: 8,
		Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := fleet.NewSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedServingSurface(t *testing.T) {
	ctx := context.Background()
	s := surfaceFleet(t, 4, 2, nil) // 4 machines x 2 cores x MaxPerCore 1 = 8 slots

	if got := s.Policy(); got != fleet.LeastDegradation {
		t.Fatalf("Policy() = %v", got)
	}
	if got := s.Shards(); got != 2 {
		t.Fatalf("Shards() = %d", got)
	}
	names := s.NodeNames()
	if len(names) != 4 || names[0] != "m0" || names[3] != "m3" {
		t.Fatalf("NodeNames() = %v", names)
	}

	// Batch placement across shards.
	batch, err := s.PlaceAll(ctx, []*workload.Spec{
		workload.ByName("gzip"), workload.ByName("vpr"), workload.ByName("mcf"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("PlaceAll placed %d, want 3", len(batch))
	}

	st, err := s.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 4 {
		t.Fatalf("State has %d nodes, want 4", len(st.Nodes))
	}
	residents := 0
	for _, n := range st.Nodes {
		residents += n.Residents
	}
	if residents != 3 {
		t.Fatalf("State shows %d residents, want 3", residents)
	}
	spi, watts, err := s.Totals(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if spi <= 0 || watts <= 0 {
		t.Fatalf("Totals = (%v, %v), want positive", spi, watts)
	}

	// Queue → pump fast path: capacity is free, so Pump admits both.
	for _, name := range []string{"art", "swim"} {
		if _, err := s.Submit(workload.ByName(name), name); err != nil {
			t.Fatal(err)
		}
	}
	if qi := s.QueuedInfo(); len(qi) != 2 {
		t.Fatalf("QueuedInfo = %v, want 2 entries", qi)
	}
	pumped, err := s.Pump(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pumped) != 2 || s.QueueDepth() != 0 {
		t.Fatalf("Pump admitted %d (depth %d), want 2 (0)", len(pumped), s.QueueDepth())
	}

	// Fill the remaining 3 slots, then confirm the full-fleet paths:
	// a direct Place is rejected (slow-path confirmation) and a queued
	// zero-priority head blocks (the all-locked pass confirms no fit).
	for _, name := range []string{"ammp", "applu", "twolf"} {
		if _, err := s.Place(ctx, workload.ByName(name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Place(ctx, workload.ByName("equake")); err == nil {
		t.Fatal("Place on a full fleet succeeded")
	}
	tk, err := s.Submit(workload.ByName("bzip2"), "blocked")
	if err != nil {
		t.Fatal(err)
	}
	if pumped, err := s.Pump(ctx); err != nil || len(pumped) != 0 {
		t.Fatalf("Pump on full fleet: %v placed, err %v", pumped, err)
	}
	if d := s.QueueDepth(); d != 1 {
		t.Fatalf("blocked head left depth %d, want 1", d)
	}

	// Priority preemption through the pump: the class-2 arrival jumps
	// the zero-priority head and evicts a victim, which re-enters the
	// queue under a ticket of its own.
	if _, err := s.SubmitWith(workload.ByName("equake"), "vip", 2); err != nil {
		t.Fatal(err)
	}
	pumped, err = s.Pump(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pumped) != 1 || pumped[0].Tag != "vip" {
		t.Fatalf("priority pump admitted %v, want the vip entry", pumped)
	}
	victim := pumped[0].Preempted
	if victim == nil || !victim.Requeued || victim.Ticket == 0 {
		t.Fatalf("victim disposition %+v, want requeued under a ticket", victim)
	}
	if d := s.QueueDepth(); d != 2 {
		t.Fatalf("queue depth %d after the preemption, want the blocked head and the victim", d)
	}

	// Both cancel by ticket; then exercise the node lifecycle.
	if !s.CancelQueued(tk) || !s.CancelQueued(victim.Ticket) || s.QueueDepth() != 0 {
		t.Fatalf("cancelling the blocked head and the requeued victim left depth %d", s.QueueDepth())
	}
	evicted, err := s.FailNode("m0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FailNode("m0"); err == nil {
		t.Fatal("failing a down node succeeded")
	}
	if _, err := s.RestoreNode(ctx, "m0"); err != nil {
		t.Fatal(err)
	}
	_ = evicted
	if _, err := s.Rebalance(ctx, 0); err != nil && !errors.Is(err, manager.ErrNoImprovement) {
		t.Fatalf("Rebalance: %v", err)
	}

	// Remove one known resident; the freed slot pumps the (now empty)
	// queue without error.
	ins := s.Inspect()
	for _, ni := range ins {
		if len(ni.Residents) > 0 {
			if _, err := s.Remove(ctx, ni.Name, ni.Residents[0].Name); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	// The gauge collectors run on exposition.
	if err := s.Registry().WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestShardedColdScorePlacement drives the cold-solve scoring path (no
// score memo, no shared solver state) through the sharded optimistic
// loop: answers must match the warm path placement-for-placement.
func TestShardedColdScorePlacement(t *testing.T) {
	ctx := context.Background()
	var nodes [2][]string
	for i, cold := range []bool{false, true} {
		s := surfaceFleet(t, 4, 2, func(cfg *fleet.Config) {
			if cold {
				cfg.ScoreCacheCap = -1
			}
		})
		for _, name := range []string{"gzip", "vpr", "mcf", "art"} {
			p, err := s.Place(ctx, workload.ByName(name))
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = append(nodes[i], p.Node)
		}
	}
	if fmt.Sprint(nodes[0]) != fmt.Sprint(nodes[1]) {
		t.Fatalf("cold scoring diverged: warm %v cold %v", nodes[0], nodes[1])
	}
}

// recoverBackend is the journal→recover round-trip surface shared by
// *fleet.Fleet and *fleet.Sharded.
type recoverBackend interface {
	PlaceAll(ctx context.Context, specs []*workload.Spec) ([]fleet.Placed, error)
	Place(ctx context.Context, spec *workload.Spec) (fleet.Placed, error)
	Submit(spec *workload.Spec, tag string) (int, error)
	CancelQueued(ticket int) bool
	FailNode(name string) ([]manager.Resident, error)
	State(ctx context.Context) (*fleet.State, error)
	QueuedInfo() []fleet.QueuedEntry
	Recover(ctx context.Context, st *wal.State) error
}

// TestJournalRecoverRoundTrip replays a journaled mutation history into
// a fresh fleet via wal.State and requires the recovered serving state
// to be byte-identical — for the single-lock fleet and the sharded one.
func TestJournalRecoverRoundTrip(t *testing.T) {
	ctx := context.Background()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	build := func(shards int, journal func([]wal.Event)) recoverBackend {
		var nodes []fleet.NodeConfig
		for i := 0; i < 4; i++ {
			nodes = append(nodes, fleet.NodeConfig{
				Name: fmt.Sprintf("m%d", i), Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1,
			})
		}
		cfg := fleet.Config{
			Nodes:    nodes,
			Policy:   fleet.LeastDegradation,
			QueueCap: 8,
			Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
				return core.TruthFeature(spec, m), nil
			},
			Journal: journal,
		}
		if shards > 1 {
			s, err := fleet.NewSharded(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		f, err := fleet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			shadow := &wal.State{}
			journal := func(events []wal.Event) {
				for _, e := range events {
					if err := shadow.Apply(e); err != nil {
						t.Fatalf("shadow apply: %v", err)
					}
				}
			}
			f1 := build(shards, journal)
			if _, err := f1.PlaceAll(ctx, []*workload.Spec{
				workload.ByName("gzip"), workload.ByName("vpr"), workload.ByName("mcf"),
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := f1.Place(ctx, workload.ByName("art")); err != nil {
				t.Fatal(err)
			}
			keep, err := f1.Submit(workload.ByName("swim"), "keep")
			if err != nil {
				t.Fatal(err)
			}
			drop, err := f1.Submit(workload.ByName("ammp"), "drop")
			if err != nil {
				t.Fatal(err)
			}
			_ = keep
			if !f1.CancelQueued(drop) {
				t.Fatal("cancel failed")
			}
			if _, err := f1.FailNode("m3"); err != nil {
				t.Fatal(err)
			}

			pre, err := f1.State(ctx)
			if err != nil {
				t.Fatal(err)
			}
			preJSON, _ := json.Marshal(pre)

			f2 := build(shards, nil)
			if err := f2.Recover(ctx, shadow); err != nil {
				t.Fatalf("recover: %v", err)
			}
			post, err := f2.State(ctx)
			if err != nil {
				t.Fatal(err)
			}
			postJSON, _ := json.Marshal(post)
			if string(preJSON) != string(postJSON) {
				t.Fatalf("recovered state diverged:\n pre %s\npost %s", preJSON, postJSON)
			}
			qi1, qi2 := f1.QueuedInfo(), f2.QueuedInfo()
			if fmt.Sprint(qi1) != fmt.Sprint(qi2) {
				t.Fatalf("recovered queue diverged: %v vs %v", qi1, qi2)
			}
			// Recovery into a dirty fleet is refused.
			if err := f2.Recover(ctx, shadow); err == nil {
				t.Fatal("recover into a non-empty fleet succeeded")
			}
		})
	}
}

// TestPumpDropsOnScoreFailure pins the non-capacity failure contract on
// both pump implementations: a queue head whose scoring pass fails is
// dropped (journaled, counted) and the pump moves on, leaving the queue
// empty rather than wedged behind a poisoned entry.
func TestPumpDropsOnScoreFailure(t *testing.T) {
	ctx := context.Background()
	boom := func(site, key string) error {
		if site == "fleet.score" {
			return errors.New("injected score failure")
		}
		return nil
	}

	t.Run("unsharded", func(t *testing.T) {
		pm, err := core.SyntheticPowerModel()
		if err != nil {
			t.Fatal(err)
		}
		f, err := fleet.New(fleet.Config{
			Nodes: []fleet.NodeConfig{
				{Name: "m0", Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1},
			},
			Policy:   fleet.LeastDegradation,
			QueueCap: 4,
			Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
				return core.TruthFeature(spec, m), nil
			},
			Intercept: boom,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Submit(workload.ByName("mcf"), "poisoned"); err != nil {
			t.Fatal(err)
		}
		placed, err := f.Pump(ctx)
		if err != nil {
			t.Fatalf("pump: %v", err)
		}
		if len(placed) != 0 || f.QueueDepth() != 0 {
			t.Fatalf("placed %d, depth %d; want the entry dropped", len(placed), f.QueueDepth())
		}
		if got := f.Registry().CounterValue("fleet_queue_dropped_total"); got != 1 {
			t.Fatalf("dropped counter %d, want 1", got)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		s := surfaceFleet(t, 4, 2, func(cfg *fleet.Config) { cfg.Intercept = boom })
		if _, err := s.Submit(workload.ByName("mcf"), "poisoned"); err != nil {
			t.Fatal(err)
		}
		placed, err := s.Pump(ctx)
		if err != nil {
			t.Fatalf("pump: %v", err)
		}
		if len(placed) != 0 || s.QueueDepth() != 0 {
			t.Fatalf("placed %d, depth %d; want the entry dropped", len(placed), s.QueueDepth())
		}
		if got := s.Registry().CounterValue("fleet_queue_dropped_total"); got != 1 {
			t.Fatalf("dropped counter %d, want 1", got)
		}
	})
}

// TestShardedPlaceAllRollsBack pins batch atomicity across shards: when
// a later placement in the batch finds no capacity, every earlier commit
// is undone — no shard keeps a partial batch.
func TestShardedPlaceAllRollsBack(t *testing.T) {
	ctx := context.Background()
	s := surfaceFleet(t, 2, 2, nil) // 2 machines x 2 cores x MaxPerCore 1 = 4 slots
	var specs []*workload.Spec
	for _, name := range []string{"gzip", "vpr", "mcf", "art", "swim"} {
		specs = append(specs, workload.ByName(name))
	}
	if _, err := s.PlaceAll(ctx, specs); err == nil {
		t.Fatal("PlaceAll of 5 specs on 4 slots succeeded")
	}
	for _, ni := range s.Inspect() {
		if len(ni.Residents) != 0 {
			t.Fatalf("rollback left %d residents on %s", len(ni.Residents), ni.Name)
		}
	}
}

// TestShardedConstructionLimits pins the config surface: the serial
// Spread policy and the global MaxFeasible cut refuse to shard, and the
// unsharded accessors/gauges still work.
func TestShardedConstructionLimits(t *testing.T) {
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	nodes := []fleet.NodeConfig{
		{Name: "m0", Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1},
		{Name: "m1", Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1},
	}
	base := fleet.Config{Nodes: nodes, Policy: fleet.Spread, Seed: 1}
	if _, err := fleet.NewSharded(base, 2); err == nil {
		t.Fatal("sharded Spread constructed")
	}
	base.Policy = fleet.LeastDegradation
	base.MaxFeasible = 1
	if _, err := fleet.NewSharded(base, 2); err == nil {
		t.Fatal("sharded MaxFeasible constructed")
	}
	if _, err := fleet.ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}

	f, err := fleet.New(fleet.Config{Nodes: nodes, Policy: fleet.LeastDegradation})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Policy(); got != fleet.LeastDegradation {
		t.Fatalf("Policy() = %v", got)
	}
	if err := f.Registry().WriteText(io.Discard); err != nil {
		t.Fatal(err)
	}
}
