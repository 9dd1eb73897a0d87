package fleet

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

// oracle returns the analytic truth feature instantly, optionally counting
// invocations and holding each run open for delay so concurrency tests can
// widen the in-flight window.
func oracle(runs *atomic.Int64, delay time.Duration) ProfileFunc {
	return func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
		if runs != nil {
			runs.Add(1)
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return core.TruthFeature(spec, m), nil
	}
}

func testPower(t testing.TB) *core.PowerModel {
	t.Helper()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatalf("SyntheticPowerModel: %v", err)
	}
	return pm
}

// testFleet builds a 4× workstation fleet (2 cores each, 2 per core →
// fleet capacity 16) with oracle profiling. mutate may override any
// Config field.
func testFleet(t testing.TB, policy Policy, mutate func(*Config)) *Fleet {
	t.Helper()
	pm := testPower(t)
	var nodes []NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, NodeConfig{
			Machine:    machine.TwoCoreWorkstation(),
			Power:      pm,
			MaxPerCore: 2,
		})
	}
	cfg := Config{
		Nodes:    nodes,
		Policy:   policy,
		QueueCap: 8,
		Seed:     1,
		Workers:  2,
		Profile:  oracle(nil, 0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

// sixteenSpecs cycles the suite into a 16-process arrival batch.
func sixteenSpecs() []*workload.Spec {
	suite := workload.Suite()
	out := make([]*workload.Spec, 16)
	for i := range out {
		out[i] = suite[i%len(suite)]
	}
	return out
}

// checkCapacity asserts that no node holds more residents per core than
// its MaxPerCore allows.
func checkCapacity(t *testing.T, f *Fleet) int {
	t.Helper()
	total := 0
	for _, n := range f.nodes {
		for c, names := range n.mgr.Running() {
			if n.cfg.MaxPerCore != 0 && len(names) > n.cfg.MaxPerCore {
				t.Fatalf("node %s core %d holds %d residents, cap %d",
					n.cfg.Name, c, len(names), n.cfg.MaxPerCore)
			}
			total += len(names)
		}
	}
	return total
}

// fleetSnapshot captures every observable piece of scheduler state the
// transactional guarantees protect: each manager's deep snapshot plus the
// fleet's round-robin cursor and queue.
type fleetSnapshot struct {
	nodes  []*manager.Snapshot
	rrNode int
	queue  int
}

func snapshotFleet(f *Fleet) fleetSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := fleetSnapshot{rrNode: f.rrNode, queue: len(f.queue)}
	for _, n := range f.nodes {
		s.nodes = append(s.nodes, n.mgr.Snapshot())
	}
	return s
}

func requireUnchanged(t *testing.T, f *Fleet, before fleetSnapshot) {
	t.Helper()
	after := snapshotFleet(f)
	if after.rrNode != before.rrNode {
		t.Fatalf("round-robin cursor changed: %d → %d", before.rrNode, after.rrNode)
	}
	if after.queue != before.queue {
		t.Fatalf("queue depth changed: %d → %d", before.queue, after.queue)
	}
	for i := range before.nodes {
		if !reflect.DeepEqual(before.nodes[i], after.nodes[i]) {
			t.Fatalf("node %d state changed across failed operation", i)
		}
	}
}

// TestPoliciesPlaceSixteen is the acceptance scenario: all four policies
// place a 16-process trace on the 4-machine fleet without capacity
// violations, transactionally, in one batch.
func TestPoliciesPlaceSixteen(t *testing.T) {
	for _, p := range Policies() {
		t.Run(p.String(), func(t *testing.T) {
			f := testFleet(t, p, nil)
			placed, err := f.PlaceAll(context.Background(), sixteenSpecs())
			if err != nil {
				t.Fatalf("PlaceAll: %v", err)
			}
			if len(placed) != 16 {
				t.Fatalf("placed %d, want 16", len(placed))
			}
			if got := checkCapacity(t, f); got != 16 {
				t.Fatalf("%d residents, want 16", got)
			}
			if got := f.Registry().CounterValue("fleet_place_total"); got != 16 {
				t.Fatalf("fleet_place_total %d, want 16", got)
			}
			// The fleet is now exactly full: one more arrival must be
			// rejected with the typed sentinel.
			if _, err := f.Place(context.Background(), workload.ByName("gzip")); !errors.Is(err, ErrFleetFull) {
				t.Fatalf("Place on full fleet: %v, want ErrFleetFull", err)
			}
		})
	}
}

// TestBinPackFillsInOrder pins BinPack's shape: with a generous ceiling it
// saturates machine 0 before ever touching machine 1.
func TestBinPackFillsInOrder(t *testing.T) {
	f := testFleet(t, BinPack, func(c *Config) { c.BinPackCeiling = 100 })
	specs := sixteenSpecs()[:4] // exactly one workstation's capacity
	placed, err := f.PlaceAll(context.Background(), specs)
	if err != nil {
		t.Fatalf("PlaceAll: %v", err)
	}
	for i, p := range placed {
		if p.Node != "m0" {
			t.Fatalf("placement %d landed on %s, want m0 (binpack fills in order)", i, p.Node)
		}
	}
	p, err := f.Place(context.Background(), specs[0])
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if p.Node != "m1" {
		t.Fatalf("overflow landed on %s, want m1", p.Node)
	}
}

// TestSpreadRoundRobin pins Spread's rotation: successive arrivals visit
// machines in order, and the cursor only advances on success.
func TestSpreadRoundRobin(t *testing.T) {
	f := testFleet(t, Spread, nil)
	want := []string{"m0", "m1", "m2", "m3", "m0"}
	for i, w := range want {
		p, err := f.Place(context.Background(), workload.ByName("gzip"))
		if err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
		if p.Node != w {
			t.Fatalf("arrival %d landed on %s, want %s", i, p.Node, w)
		}
	}
}

// TestQueueLifecycle drives the admission queue end to end: overflow
// queues FIFO, departures pump the queue, cancellation withdraws, and a
// full queue rejects with the typed sentinel.
func TestQueueLifecycle(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, func(c *Config) { c.QueueCap = 2 })
	placed, err := f.PlaceAll(ctx, sixteenSpecs())
	if err != nil {
		t.Fatalf("PlaceAll: %v", err)
	}

	// Fleet full: arrivals must queue, in order, until the queue fills.
	t1, err := f.Submit(workload.ByName("mcf"), "first")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := f.Submit(workload.ByName("art"), "second"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := f.Submit(workload.ByName("gzip"), "third"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over cap: %v, want ErrQueueFull", err)
	}
	if d := f.QueueDepth(); d != 2 {
		t.Fatalf("queue depth %d, want 2", d)
	}

	// Head-of-line cancellation: "second" becomes the head.
	if !f.CancelQueued(t1) {
		t.Fatal("CancelQueued(first) = false, want true")
	}
	if f.CancelQueued(t1) {
		t.Fatal("CancelQueued twice = true, want false")
	}

	// A departure frees one slot and pumps the queue: "second" admits.
	admitted, err := f.Remove(ctx, placed[0].Node, placed[0].Name)
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if len(admitted) != 1 || admitted[0].Tag != "second" {
		t.Fatalf("pump admitted %+v, want exactly tag \"second\"", admitted)
	}
	if got := checkCapacity(t, f); got != 16 {
		t.Fatalf("%d residents after pump, want 16", got)
	}
	if got := f.Registry().CounterValue("fleet_queue_admitted_total"); got != 1 {
		t.Fatalf("fleet_queue_admitted_total %d, want 1", got)
	}
}

// TestSingleflightProfiling hammers one benchmark from many goroutines:
// the shared cache must collapse the burst into exactly one profiling
// sweep per machine kind.
func TestSingleflightProfiling(t *testing.T) {
	var runs atomic.Int64
	pm := testPower(t)
	f, err := New(Config{
		Nodes: []NodeConfig{
			{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 4},
			{Machine: machine.FourCoreServer(), Power: pm, MaxPerCore: 4},
		},
		Policy:  LeastDegradation,
		Workers: 4,
		Profile: oracle(&runs, 20*time.Millisecond),
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.Place(context.Background(), workload.ByName("mcf"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
	}
	// Two machine kinds (workstation, server) → exactly two sweeps for the
	// whole burst, no matter how many goroutines raced.
	if got := runs.Load(); got != 2 {
		t.Fatalf("%d profiling sweeps, want 2 (one per machine kind)", got)
	}
}

// TestHeterogeneousFleet places on a mixed workstation/laptop/server fleet
// and checks vectors are profiled per machine kind.
func TestHeterogeneousFleet(t *testing.T) {
	var runs atomic.Int64
	pm := testPower(t)
	f, err := New(Config{
		Nodes: []NodeConfig{
			{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2},
			{Machine: machine.TwoCoreLaptop(), Power: pm, MaxPerCore: 2},
			{Machine: machine.FourCoreServer(), Power: pm, MaxPerCore: 2},
		},
		Policy:  LeastWatts,
		Workers: 2,
		Profile: oracle(&runs, 0),
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	specs := []*workload.Spec{workload.ByName("mcf"), workload.ByName("gzip"), workload.ByName("art")}
	if _, err := f.PlaceAll(context.Background(), specs); err != nil {
		t.Fatalf("PlaceAll: %v", err)
	}
	// 3 machine kinds × 3 workloads: every pair profiled exactly once.
	if got := runs.Load(); got != 9 {
		t.Fatalf("%d profiling sweeps, want 9", got)
	}
	checkCapacity(t, f)
}

// TestRebalanceMovesOffHotMachine piles everything onto one machine (a
// saturated BinPack) and checks the cross-machine pass migrates a process
// to the idle machine with a positive predicted improvement.
func TestRebalanceMovesOffHotMachine(t *testing.T) {
	ctx := context.Background()
	pm := testPower(t)
	f, err := New(Config{
		Nodes: []NodeConfig{
			{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2},
			{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2},
		},
		Policy:         BinPack,
		BinPackCeiling: 100, // everything lands on m0
		Workers:        2,
		Profile:        oracle(nil, 0),
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	specs := []*workload.Spec{
		workload.ByName("mcf"), workload.ByName("art"),
		workload.ByName("swim"), workload.ByName("equake"),
	}
	if _, err := f.PlaceAll(ctx, specs); err != nil {
		t.Fatalf("PlaceAll: %v", err)
	}

	mv, err := f.Rebalance(ctx, 0)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if mv.From != "m0" || mv.To != "m1" {
		t.Fatalf("move %s → %s, want m0 → m1", mv.From, mv.To)
	}
	if mv.Improvement <= 0 {
		t.Fatalf("non-positive improvement %v", mv.Improvement)
	}
	if mv.SPIBefore-mv.SPIAfter != mv.Improvement {
		t.Fatalf("inconsistent move accounting: %+v", mv)
	}
	if got := checkCapacity(t, f); got != 4 {
		t.Fatalf("%d residents after move, want 4", got)
	}
	if got := f.Registry().CounterValue("fleet_rebalance_moves_total"); got != 1 {
		t.Fatalf("fleet_rebalance_moves_total %d, want 1", got)
	}

	// Repeated passes must terminate at a layout the model cannot improve.
	for i := 0; i < 8; i++ {
		if _, err := f.Rebalance(ctx, 0); err != nil {
			if !errors.Is(err, manager.ErrNoImprovement) {
				t.Fatalf("Rebalance pass %d: %v", i, err)
			}
			return
		}
	}
	t.Fatal("rebalancing never converged")
}

// TestStateAndTotals sanity-checks the state surface against the resident
// layout.
func TestStateAndTotals(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, nil)
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:6]); err != nil {
		t.Fatalf("PlaceAll: %v", err)
	}
	st, err := f.State(ctx)
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if st.Residents != 6 {
		t.Fatalf("state residents %d, want 6", st.Residents)
	}
	if st.Policy != "least-degradation" {
		t.Fatalf("state policy %q", st.Policy)
	}
	if len(st.Nodes) != 4 {
		t.Fatalf("%d nodes in state, want 4", len(st.Nodes))
	}
	if st.TotalWatts <= 0 || st.TotalPredictedSPI <= 0 {
		t.Fatalf("degenerate totals: %+v", st)
	}
	spi, watts, err := f.Totals(ctx)
	if err != nil {
		t.Fatalf("Totals: %v", err)
	}
	if spi != st.TotalPredictedSPI || watts != st.TotalWatts {
		t.Fatalf("Totals (%v, %v) disagree with State (%v, %v)",
			spi, watts, st.TotalPredictedSPI, st.TotalWatts)
	}
}

// TestNewValidation pins constructor errors.
func TestNewValidation(t *testing.T) {
	pm := testPower(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no nodes", Config{}},
		{"nil machine", Config{Nodes: []NodeConfig{{Power: pm}}}},
		{"nil power", Config{Nodes: []NodeConfig{{Machine: machine.TwoCoreWorkstation()}}}},
		{"duplicate names", Config{Nodes: []NodeConfig{
			{Name: "a", Machine: machine.TwoCoreWorkstation(), Power: pm},
			{Name: "a", Machine: machine.TwoCoreWorkstation(), Power: pm},
		}}},
		{"negative max per core", Config{Nodes: []NodeConfig{
			{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: -1},
		}}},
		{"negative ceiling", Config{BinPackCeiling: -1, Nodes: []NodeConfig{
			{Machine: machine.TwoCoreWorkstation(), Power: pm},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

// TestParsePolicyRoundTrip pins the name mapping both ways.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("power-aware"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
	if s := Policy(99).String(); s != "Policy(99)" {
		t.Fatalf("unknown policy String() = %q", s)
	}
}

// TestNodeIndexCoversEveryNode: the name index built when a fleet is wired
// resolves every node of a standalone fleet and, on the whole-fleet value
// of a sharded one, every node of the concatenated list; an unknown name is
// no node, and a second node of one name never gets as far as the index.
func TestNodeIndexCoversEveryNode(t *testing.T) {
	f := testFleet(t, LeastDegradation, func(cfg *Config) { cfg.Nodes[2].Name = "spare" })
	pm := testPower(t)
	var nodes []NodeConfig
	for i := 0; i < 5; i++ {
		nodes = append(nodes, NodeConfig{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2})
	}
	nodes[4].Name = "spare"
	sharded, err := NewSharded(Config{Nodes: nodes, Policy: LeastDegradation, Profile: oracle(nil, 0)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range []*Fleet{f, sharded.Fleet} {
		for i, name := range fl.NodeNames() {
			if n := fl.nodeByNameLocked(name); n != fl.nodes[i] {
				t.Errorf("%q resolves to %v, want node %d", name, n, i)
			}
		}
		if n := fl.nodeByNameLocked("nowhere"); n != nil {
			t.Errorf("an unknown name resolves to node %q", n.cfg.Name)
		}
	}
	if _, err := f.FailNode("nowhere"); err == nil {
		t.Error("FailNode accepted an unknown node")
	}
	nodes[1].Name = "spare" // shard 0 and shard 1 each hold one "spare"
	if _, err := NewSharded(Config{Nodes: nodes, Policy: LeastDegradation, Profile: oracle(nil, 0)}, 2); err == nil {
		t.Error("NewSharded accepted two nodes of one name in different shards")
	}
}
