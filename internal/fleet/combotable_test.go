package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/metrics"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// This file pins the operation-scoped combination tables: they change no
// result, they hold nothing once an operation has released the fleet lock,
// and fanned-out scorers share one safely.

// wholeOf returns the fleet value an engine's operations lock.
func wholeOf(e engine) *Fleet {
	if s, ok := e.(*Sharded); ok {
		return s.Fleet
	}
	return e.(*Fleet)
}

// tablesOf lists the lock-held tables of an engine: its own and its
// shards'.
func tablesOf(e engine) []*core.ComboTable {
	f := wholeOf(e)
	out := []*core.ComboTable{f.ctab}
	for _, sh := range f.domain {
		out = append(out, sh.ctab)
	}
	return out
}

// ledgerRows returns an engine's watt-ledger rows (nil while uncapped).
func ledgerRows(e engine) map[string]float64 {
	if f := wholeOf(e); f.capL != nil {
		return f.capL.snapshotRows()
	}
	return nil
}

// sameRows compares two ledgers row by row, by bit pattern.
func sameRows(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func stateJSON(t *testing.T, ctx context.Context, e engine) ([]byte, error) {
	t.Helper()
	st, err := e.State(ctx)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b, nil
}

// runTableSweep drives one randomized trace through a fleet with
// combination tables and its twin built without them, in lockstep, and
// fails at the first difference: placements with their score and watts
// bits, errors, moves, cap reports, the ledger rows, the journal and the
// state bytes. After every operation the table fleet's lock-held tables
// must be empty.
func runTableSweep(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pols := shardablePolicies() // the model policies: all but Spread
	policy := pols[int(seed)%len(pols)]
	cacheCap := []int{0, -1}[seed/int64(len(pols))%2]
	capped := seed/int64(2*len(pols))%2 == 1
	shards := 1 + int(seed%3)
	nNodes := 3 + r.Intn(4)
	shards = min(shards, nNodes)
	onNodes, offNodes := equivNodePair(t, r, nNodes)
	fseed := uint64(r.Int63())
	var onLog, offLog journalTap
	build := func(nodes []NodeConfig, tap *journalTap) engine {
		cfg := Config{
			Nodes: nodes, Policy: policy, QueueCap: 4, Seed: fseed, Workers: 1,
			ScoreCacheCap: cacheCap, Profile: oracle(nil, 0),
			Registry: metrics.NewRegistry(), Journal: tap.record,
		}
		if capped {
			cfg.PowerCap = 1e6
		}
		if shards == 1 {
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		s, err := NewSharded(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	on := build(onNodes, &onLog)
	comboTablesOff = true
	off := build(offNodes, &offLog)
	comboTablesOff = false
	for i, tabs := range [][]*core.ComboTable{tablesOf(on), tablesOf(off)} {
		for _, tab := range tabs {
			if (tab == nil) != (i == 1) {
				t.Fatal("comboTablesOff did not decide which fleet has tables")
			}
		}
	}
	t.Parallel()

	ctx := context.Background()
	suite := workload.Suite()
	pick := func() *workload.Spec { return suite[r.Intn(len(suite))] }
	for ev := 0; ev < 30+r.Intn(20); ev++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d ev %d (%s, cache %d, capped %v, %d shards): %s",
				seed, ev, policy, cacheCap, capped, shards, fmt.Sprintf(format, args...))
		}
		both := func(what string, op func(e engine) ([]Placed, error)) {
			t.Helper()
			a, aerr := op(on)
			b, berr := op(off)
			if (aerr == nil) != (berr == nil) || !samePlaced(a, b) {
				fail("%s: tables %+v (%v), none %+v (%v)", what, a, aerr, b, berr)
			}
		}
		switch op := r.Intn(100); {
		case op < 20:
			spec, prio := pick(), r.Intn(2)
			both("place "+spec.Name, func(e engine) ([]Placed, error) {
				p, err := e.PlaceWith(ctx, spec, PlaceOptions{Priority: prio})
				return []Placed{p}, err
			})
		case op < 30:
			specs := make([]*workload.Spec, 1+r.Intn(3))
			for i := range specs {
				specs[i] = pick()
			}
			both("place-all", func(e engine) ([]Placed, error) { return e.PlaceAll(ctx, specs) })
		case op < 38:
			g := threads.GroupSpec{Base: pick(), Threads: 1 + r.Intn(3), SharedFrac: 0.25 * float64(r.Intn(4)), WriteFrac: 0.5}
			both("place-group", func(e engine) ([]Placed, error) { return e.PlaceGroup(ctx, g) })
		case op < 50:
			spec, prio := pick(), r.Intn(3)
			a, aerr := on.SubmitWith(spec, "", prio)
			b, berr := off.SubmitWith(spec, "", prio)
			if a != b || (aerr == nil) != (berr == nil) {
				fail("submit: tables (%d, %v), none (%d, %v)", a, aerr, b, berr)
			}
			both("pump", func(e engine) ([]Placed, error) { return e.Pump(ctx) })
		case op < 70:
			var live []NodeInspection
			for _, ni := range on.Inspect() {
				if len(ni.Residents) > 0 {
					live = append(live, ni)
				}
			}
			if len(live) > 0 {
				ni := live[r.Intn(len(live))]
				res := ni.Residents[r.Intn(len(ni.Residents))]
				both("remove", func(e engine) ([]Placed, error) { return e.Remove(ctx, ni.Name, res.Name) })
			}
		case op < 80:
			a, aerr := stateJSON(t, ctx, on)
			b, berr := stateJSON(t, ctx, off)
			if string(a) != string(b) || (aerr == nil) != (berr == nil) {
				fail("state: tables %s (%v), none %s (%v)", a, aerr, b, berr)
			}
		case op < 88:
			a, aerr := on.Rebalance(ctx, 0)
			b, berr := off.Rebalance(ctx, 0)
			if a != b || (aerr == nil) != (berr == nil) {
				fail("rebalance: tables (%+v, %v), none (%+v, %v)", a, aerr, b, berr)
			}
		default:
			_, watts, err := off.Totals(ctx)
			if err != nil {
				fail("totals: %v", err)
			}
			budget := watts * []float64{0, 0.9, 1.05, 1.5}[r.Intn(4)]
			if aerr, berr := on.SetPowerCap(ctx, budget), off.SetPowerCap(ctx, budget); aerr != nil || berr != nil {
				fail("set cap %v: tables %v, none %v", budget, aerr, berr)
			}
			a, aerr := on.EnforceCap(ctx)
			b, berr := off.EnforceCap(ctx)
			if !reflect.DeepEqual(a, b) || (aerr == nil) != (berr == nil) {
				fail("enforce cap: tables (%+v, %v), none (%+v, %v)", a, aerr, b, berr)
			}
		}
		if a, b := ledgerRows(on), ledgerRows(off); !sameRows(a, b) {
			fail("ledger rows: tables %v, none %v", a, b)
		}
		if !reflect.DeepEqual(onLog.events, offLog.events) {
			fail("journals diverged")
		}
		for i, tab := range tablesOf(on) {
			if n := tab.Len(); n != 0 {
				fail("table %d holds %d combinations after the operation", i, n)
			}
		}
	}
	a, aerr := stateJSON(t, ctx, on)
	b, berr := stateJSON(t, ctx, off)
	if aerr != nil || berr != nil || string(a) != string(b) {
		t.Fatalf("seed %d: final state: tables %s (%v), none %s (%v)", seed, a, aerr, b, berr)
	}
}

// TestComboTablesChangeNothing is the 150-seed sweep (24 in -short) over
// every model policy, cached and cold scoring, capped and uncapped, the
// standalone and the sharded engine.
func TestComboTablesChangeNothing(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 24
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) { runTableSweep(t, int64(seed)) })
	}
}

// coldServerFleet builds n cold four-core servers, two residents a core at
// most, each holding one resident per core, under a power cap.
func coldServerFleet(t testing.TB, n, workers int) *Fleet {
	t.Helper()
	pm := testPower(t)
	nodes := make([]NodeConfig, n)
	for i := range nodes {
		nodes[i] = NodeConfig{Machine: machine.FourCoreServer(), Power: pm, MaxPerCore: 2}
	}
	f, err := New(Config{
		Nodes: nodes, Policy: CapAware, QueueCap: 8, Workers: workers,
		ScoreCacheCap: -1, PowerCap: 1e6, Profile: oracle(nil, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	names := []string{"mcf", "art", "swim", "applu", "equake", "gzip"}
	for i, n := range f.nodes {
		for c := range n.cfg.Machine.NumCores {
			if _, _, err := n.mgr.PlaceAt(ctx, workload.ByName(names[(i+c)%len(names)]), c); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.lock()
	for _, n := range f.nodes {
		if err := f.resyncNodeCapLocked(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	f.unlock()
	return f
}

// TestComboTableScope: an operation's table dies with the operation. The
// same read of the same state twice solves the same combinations both
// times, and nothing stays in the table between them.
func TestComboTableScope(t *testing.T) {
	f := coldServerFleet(t, 3, 1)
	ctx := context.Background()
	var solved [2]uint64
	var state [2][]byte
	for i := range solved {
		before := f.ctab.Solves()
		b, err := stateJSON(t, ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		solved[i], state[i] = f.ctab.Solves()-before, b
		if n := f.ctab.Len(); n != 0 {
			t.Fatalf("State left %d combinations in the table", n)
		}
	}
	if solved[0] == 0 || solved[0] != solved[1] || string(state[0]) != string(state[1]) {
		t.Fatalf("two States solved %d and %d combinations", solved[0], solved[1])
	}
}

// countdownCtx reports cancellation from its n-th Err call on: a cancel
// that lands at a reproducible point inside the solves.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestComboTableFanOut shares one table between the phase-2 scorers of an
// in-lock and of a detached placement over more than two scoring grains of
// cold nodes at four workers, and cancels the context of one placement while
// its scorers solve: the cancelled placement fails, nothing it solved
// outlives it, and the next placements decide as a fleet without tables
// does. Run under -race.
func TestComboTableFanOut(t *testing.T) {
	nodes := 2*scoreGrain + 4
	f := coldServerFleet(t, nodes, 4)
	comboTablesOff = true
	ref := coldServerFleet(t, nodes, 4)
	comboTablesOff = false
	ctx := context.Background()
	spec := workload.ByName("equake")

	// A twin counts the context checks one placement makes; phase 1 makes
	// one per node, so halfway through the rest lands inside the
	// fanned-out solves.
	probe := &countdownCtx{Context: ctx}
	probe.left.Store(math.MaxInt64)
	if _, err := coldServerFleet(t, nodes, 4).PlaceWith(probe, spec, PlaceOptions{}); err != nil {
		t.Fatal(err)
	}
	checks := math.MaxInt64 - probe.left.Load()
	cctx := &countdownCtx{Context: ctx}
	cctx.left.Store(int64(nodes) + (checks-int64(nodes))/2)
	before := f.ctab.Solves()
	if _, err := f.PlaceWith(cctx, spec, PlaceOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled placement: %v", err)
	}
	if f.ctab.Solves() == before {
		t.Fatal("the cancel landed before any solve")
	}
	if n := f.ctab.Len(); n != 0 {
		t.Fatalf("%d combinations outlived the cancelled placement", n)
	}
	// The in-lock path, then the detached one through the queue.
	for _, e := range []*Fleet{f, ref} {
		if _, err := e.SubmitWith(workload.ByName("art"), "q", 0); err != nil {
			t.Fatal(err)
		}
	}
	a, aerr := f.PlaceWith(ctx, spec, PlaceOptions{})
	b, berr := ref.PlaceWith(ctx, spec, PlaceOptions{})
	if aerr != nil || berr != nil || !samePlaced([]Placed{a}, []Placed{b}) {
		t.Fatalf("in-lock fan-out: tables %+v (%v), none %+v (%v)", a, aerr, b, berr)
	}
	pa, aerr := f.Pump(ctx)
	pb, berr := ref.Pump(ctx)
	if aerr != nil || berr != nil || len(pa) != 1 || !samePlaced(pa, pb) {
		t.Fatalf("detached fan-out: tables %+v (%v), none %+v (%v)", pa, aerr, pb, berr)
	}
	if n := f.ctab.Len(); n != 0 {
		t.Fatalf("%d combinations outlived the placements", n)
	}
}

// TestScoreNodeColdAllocs: a cold cap-aware score of a busy four-core server
// allocates nothing once its scratch and the operation's table have
// grown.
func TestScoreNodeColdAllocs(t *testing.T) {
	f := coldServerFleet(t, 1, 1)
	ctx := context.Background()
	n := f.nodes[0]
	feat, err := f.feats.get(ctx, n.kind, workload.ByName("equake"))
	if err != nil {
		t.Fatal(err)
	}
	asg := f.assignmentOf(n)
	allocs := testing.AllocsPerRun(100, func() {
		if s, err := f.scoreNodeCold(ctx, f.ctab, n, feat, asg, n.freqIx); err != nil || !s.OK {
			t.Fatalf("score = %+v, %v", s, err)
		}
		f.ctab.Reset()
	})
	if allocs != 0 {
		t.Errorf("a cold score allocates %v objects, want 0", allocs)
	}
}

// TestPlaceAllAllocs bounds the allocations of a cold cap-aware batch of
// three on a 24-node fleet of the three presets, each node a quarter full.
func TestPlaceAllAllocs(t *testing.T) {
	pm := testPower(t)
	presets := []func() *machine.Machine{machine.TwoCoreWorkstation, machine.FourCoreServer, machine.TwoCoreLaptop}
	nodes := make([]NodeConfig, 24)
	for i := range nodes {
		nodes[i] = NodeConfig{Machine: presets[i%3](), Power: pm, MaxPerCore: 2}
	}
	f, err := New(Config{
		Nodes: nodes, Policy: CapAware, ScoreCacheCap: -1, PowerCap: 1e5, Profile: oracle(nil, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	suite := workload.Suite()
	for i := 0; i < 12; i++ {
		if _, err := f.Place(ctx, suite[i%len(suite)]); err != nil {
			t.Fatal(err)
		}
	}
	batch := []*workload.Spec{suite[1], suite[4], suite[7]}
	place := func() []Placed {
		out, err := f.PlaceAll(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, p := range place() { // warm every pool
		if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var ms runtime.MemStats
	mallocs := uint64(0)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		placed := place()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		for _, p := range placed {
			if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("PlaceAll of 3 on 24 nodes: %d allocations", mallocs/runs)
	if got := mallocs / runs; got > 80 {
		t.Errorf("a cold batch of three allocates %d objects, want at most 80", got)
	}
}
