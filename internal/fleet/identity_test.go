package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/metrics"
	"mpmc/internal/sched"
	"mpmc/internal/workload"
)

// scaleFleet is the benchmark's fleet_sim configuration: 1 000 machines of
// three presets (a fresh *machine.Machine per node, so only the name can
// carry the feature identity), capacity predicates and a MaxFeasible cut
// of 8, filled to 0.75 occupancy from a seeded stream over the suite. It
// returns the fleet and the residents in arrival order.
func scaleFleet(tb testing.TB) (*Fleet, []Placed, func() *workload.Spec) {
	tb.Helper()
	pm := testPower(tb)
	presets := []func() *machine.Machine{
		machine.TwoCoreWorkstation, machine.FourCoreServer, machine.TwoCoreLaptop,
	}
	nodes := make([]NodeConfig, 1000)
	slots := 0
	for i := range nodes {
		m := presets[i%len(presets)]()
		nodes[i] = NodeConfig{Machine: m, Power: pm, MaxPerCore: 2}
		slots += 2 * m.NumCores
	}
	f, err := New(Config{
		Nodes: nodes, Policy: LeastDegradation, Seed: 1, Profile: oracle(nil, 0),
		ExtraPredicates: []sched.Predicate{sched.FreeSlot{}, sched.PerCoreCap{}},
		MaxFeasible:     8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	suite, r := workload.Suite(), rand.New(rand.NewSource(1))
	next := func() *workload.Spec { return suite[r.Intn(len(suite))] }
	fifo := make([]Placed, 0, slots)
	for len(fifo) < slots*3/4 {
		p, err := f.Place(context.Background(), next())
		if err != nil {
			tb.Fatal(err)
		}
		fifo = append(fifo, p)
	}
	return f, fifo, next
}

// TestPlaceWorkFollowsCandidates pins what a warm placement on the large
// predicated fleet may cost, without a production counter: feature-cache
// lookups bounded by the kinds and the scored candidates (not the 1 000
// nodes), and no goroutine when every survivor hits the decision memo.
func TestPlaceWorkFollowsCandidates(t *testing.T) {
	ctx := context.Background()
	f, _, next := scaleFleet(t)
	if got := len(f.feats.kinds); got != 3 {
		t.Fatalf("%d machine kinds for three presets", got)
	}

	// One resolve probe per kind, one lookup per scored candidate, one for
	// the commit's PlaceAt (1 008 before kinds: a probe per node).
	bound := uint64(len(f.feats.kinds) + f.cfg.MaxFeasible + 1)
	for i := 0; i < 20; i++ {
		before := f.feats.lru.Stats()
		p, err := f.Place(ctx, next())
		if err != nil {
			t.Fatal(err)
		}
		after := f.feats.lru.Stats()
		if n := after.Hits + after.Misses - before.Hits - before.Misses; n > bound {
			t.Fatalf("placement %d made %d feature-cache lookups, want <= %d", i, n, bound)
		}
		if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
			t.Fatal(err)
		}
	}

	// Placing and removing one workload returns the fleet to the same
	// content, so from the second cycle on every survivor's decision is
	// memoized. Such a cycle must cost the same at any worker count:
	// nothing is left for the fan-out to do, so none is started.
	spec := workload.ByName("mcf")
	cycle := func() {
		p, err := f.Place(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	misses := f.ScoreCacheStats().DecisionMisses
	f.cfg.Workers = 4
	fanned := testing.AllocsPerRun(50, cycle)
	f.cfg.Workers = 1
	serial := testing.AllocsPerRun(50, cycle)
	if f.ScoreCacheStats().DecisionMisses != misses {
		t.Fatal("the place/remove cycle missed the decision memo; the pin needs an all-hit cycle")
	}
	if fanned != serial {
		t.Fatalf("an all-hit placement allocates %.0f objects at Workers 4 and %.0f at Workers 1: a fan-out was started", fanned, serial)
	}
}

// TestWarmPlaceRemoveAllocs pins what a memo-hit placement and its
// departure allocate on the 1 000-node predicated fleet: three arrivals in
// rotation, each placed and removed, every survivor's decision memoized.
// The decision keys are built on the stack and probed without a string,
// so what is left is the placement's own bookkeeping, whatever the fleet
// size.
func TestWarmPlaceRemoveAllocs(t *testing.T) {
	ctx := context.Background()
	f, _, _ := scaleFleet(t)
	specs := []*workload.Spec{workload.ByName("mcf"), workload.ByName("art"), workload.ByName("gzip")}
	i := 0
	cycle := func() {
		p, err := f.Place(ctx, specs[i%len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 2 * len(specs) {
		cycle()
	}
	misses := f.ScoreCacheStats().DecisionMisses
	allocs := testing.AllocsPerRun(60, cycle)
	if f.ScoreCacheStats().DecisionMisses != misses {
		t.Fatal("the rotation missed the decision memo; the pin needs an all-hit cycle")
	}
	t.Logf("warm place+remove on 1 000 nodes: %.1f allocations", allocs)
	if allocs > 7 {
		t.Errorf("a warm place+remove allocates %.1f objects, want at most 7", allocs)
	}
}

// TestFeatureIdentityBounded is the engine-level leak pin: 5 000
// placements, each handed a freshly built *workload.Spec of the same ten
// names, on a 24-node 4-shard fleet whose nodes each hold their own
// *machine.Machine, leave at most kinds × names interned keys. (The table
// used to be keyed by the (machine, spec) pointer pair and grew by one
// entry per node per request.)
func TestFeatureIdentityBounded(t *testing.T) {
	ctx := context.Background()
	pm := testPower(t)
	presets := []func() *machine.Machine{
		machine.TwoCoreWorkstation, machine.FourCoreServer, machine.TwoCoreLaptop,
	}
	nodes := make([]NodeConfig, 24)
	for i := range nodes {
		nodes[i] = NodeConfig{Machine: presets[i%len(presets)](), Power: pm, MaxPerCore: 2}
	}
	s, err := NewSharded(Config{
		Nodes: nodes, Policy: LeastDegradation, Seed: 1, Profile: oracle(nil, 0),
		Registry: metrics.NewRegistry(),
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.feats.kinds); got != len(presets) {
		t.Fatalf("%d kinds across the shards for %d presets", got, len(presets))
	}
	var fifo []Placed
	for i := 0; i < 5000; i++ {
		if len(fifo) == 40 {
			if _, err := s.Remove(ctx, fifo[0].Node, fifo[0].Name); err != nil {
				t.Fatal(err)
			}
			fifo = fifo[1:]
		}
		p, err := s.Place(ctx, workload.Suite()[i%10])
		if err != nil {
			t.Fatal(err)
		}
		fifo = append(fifo, p)
	}
	interned := 0
	for _, k := range s.feats.kinds {
		interned += len(k.keys)
	}
	if max := len(s.feats.kinds) * 10; interned > max {
		t.Fatalf("%d interned feature keys after 5000 placements of ten names, want <= %d", interned, max)
	}
}

// TestInternedKeysRestartAtBound pins the bound on names a request can
// mint (thread-group bundle names embed request parameters).
func TestInternedKeysRestartAtBound(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	k := f.nodes[0].kind
	base := *workload.ByName("mcf")
	for i := 0; i < maxInternedKeys+10; i++ {
		spec := base
		spec.Name = fmt.Sprintf("mcf-%d", i)
		f.feats.keyOf(k, &spec)
		if len(k.keys) > maxInternedKeys {
			t.Fatalf("%d interned keys, bound %d", len(k.keys), maxInternedKeys)
		}
	}
}

// TestMachineNameReuseRejected: the feature cache is keyed by machine
// name, so two nodes reusing a name with a different cache geometry or
// memory system would silently share one vector. New and NewSharded must
// refuse, naming both nodes; reusing a name with the same geometry (every
// large fleet does, one *machine.Machine per node) is fine.
func TestMachineNameReuseRejected(t *testing.T) {
	pm := testPower(t)
	cases := []struct {
		name string
		edit func(*machine.Machine)
		ok   bool
	}{
		{"identical clone", func(*machine.Machine) {}, true},
		{"timeslice only", func(m *machine.Machine) { m.Timeslice *= 2 }, true},
		{"associativity", func(m *machine.Machine) { m.Assoc /= 2 }, false},
		{"sets", func(m *machine.Machine) { m.NumSets *= 2 }, false},
		{"prefetcher", func(m *machine.Machine) { m.Prefetch = !m.Prefetch }, false},
		{"memory latency", func(m *machine.Machine) { m.MemLatency *= 1.5 }, false},
		{"renamed", func(m *machine.Machine) { m.Assoc /= 2; m.Name = "workstation-half" }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edited := machine.TwoCoreWorkstation()
			tc.edit(edited)
			cfg := Config{
				Nodes: []NodeConfig{
					{Name: "first", Machine: machine.TwoCoreWorkstation(), Power: pm},
					{Name: "mid", Machine: machine.TwoCoreLaptop(), Power: pm},
					{Name: "second", Machine: edited, Power: pm},
				},
				Policy: LeastDegradation, Profile: oracle(nil, 0),
			}
			check := func(what string, err error) {
				t.Helper()
				switch {
				case tc.ok && err != nil:
					t.Fatalf("%s rejected a legitimate fleet: %v", what, err)
				case !tc.ok && err == nil:
					t.Fatalf("%s accepted two geometries under one machine name", what)
				case !tc.ok && !(strings.Contains(err.Error(), `"first"`) && strings.Contains(err.Error(), `"second"`)):
					t.Fatalf("%s error does not name both nodes: %v", what, err)
				}
			}
			_, err := New(cfg)
			check("New", err)
			cfg.Registry = metrics.NewRegistry()
			_, err = NewSharded(cfg, 3) // one node per shard: the clash spans shards
			check("NewSharded", err)
		})
	}
}

// TestOneSpecPlaceAllNeedsNoSnapshot: a one-spec batch takes no manager
// snapshots, because nothing is committed before its only fallible step.
// A failing one — the fleet full, or the node manager's commit seam
// injecting an error — must leave the state bytes and the cap ledger
// exactly as they were, on both engines.
func TestOneSpecPlaceAllNeedsNoSnapshot(t *testing.T) {
	ctx := context.Background()
	errSeam := errors.New("injected commit fault")
	type engine interface {
		PlaceAll(ctx context.Context, specs []*workload.Spec) ([]Placed, error)
		State(ctx context.Context) (*State, error)
	}
	for _, sharded := range []bool{false, true} {
		var failCommit bool
		pm := testPower(t)
		cfg := Config{
			Policy: LeastDegradation, Seed: 1, Profile: oracle(nil, 0), PowerCap: 1e6,
			Registry: metrics.NewRegistry(),
			Intercept: func(site, key string) error {
				if failCommit && site == "manager.place_at" {
					return errSeam
				}
				return nil
			},
		}
		for i := 0; i < 4; i++ {
			cfg.Nodes = append(cfg.Nodes, NodeConfig{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 1})
		}
		var e engine
		var ledger *capLedger
		if sharded {
			s, err := NewSharded(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			e, ledger = s, s.capL
		} else {
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, ledger = f, f.capL
		}
		snapshot := func() (string, map[string]float64) {
			st, err := e.State(ctx)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return string(b), ledger.snapshotRows()
		}
		spec := []*workload.Spec{workload.ByName("mcf")}
		rejected := cfg.Registry.Counter("fleet_place_rejected_total")

		// Half full, the commit seam failing: the error surfaces bare.
		if _, err := e.PlaceAll(ctx, sixteenSpecs()[:4]); err != nil {
			t.Fatal(err)
		}
		state, rows := snapshot()
		failCommit = true
		if _, err := e.PlaceAll(ctx, spec); !errors.Is(err, errSeam) || strings.Contains(err.Error(), "rolled back") {
			t.Fatalf("sharded=%t: PlaceAll error %v, want the bare injected commit fault", sharded, err)
		}
		failCommit = false
		if s, r := snapshot(); s != state || !reflect.DeepEqual(r, rows) {
			t.Fatalf("sharded=%t: a failed one-spec PlaceAll changed the fleet:\n%s\n%s\nledger %v -> %v", sharded, state, s, rows, r)
		}

		// Full: ErrFleetFull, counted once, nothing moved.
		if _, err := e.PlaceAll(ctx, sixteenSpecs()[4:8]); err != nil {
			t.Fatal(err)
		}
		state, rows = snapshot()
		before := rejected.Value()
		if _, err := e.PlaceAll(ctx, spec); !errors.Is(err, ErrFleetFull) {
			t.Fatalf("sharded=%t: PlaceAll on a full fleet: %v", sharded, err)
		}
		if got := rejected.Value() - before; got != 1 {
			t.Fatalf("sharded=%t: %d rejections counted for one full-fleet PlaceAll", sharded, got)
		}
		if s, r := snapshot(); s != state || !reflect.DeepEqual(r, rows) {
			t.Fatalf("sharded=%t: a rejected one-spec PlaceAll changed the fleet", sharded)
		}
	}
}
