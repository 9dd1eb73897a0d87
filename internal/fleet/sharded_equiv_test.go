package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/threads"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// This file is the sharding equivalence sweep: an unsharded Fleet and a
// Sharded fleet built from the same node list, seed, and policy are
// driven through identical randomized traces in lockstep. Nothing is
// allowed to differ: every operation's placements (node, core, instance
// name, bit-identical score and watts, tag, preemption victim and its
// disposition), error presence, the admission queue after every
// operation, the flattened journal event stream, and at the end the state
// bytes and the DVFS rungs. The op mix covers the whole serving surface —
// single placements, batches, thread groups, prioritized submissions,
// pumps, cancellations, departures, machine failures, rebalancing and the
// power cap — over every shardable policy (Spread is serial and rejected
// by NewSharded), cold and cached scoring, and worker counts 1..3.

// engine is the surface the sharded front and the unsharded fleet share.
type engine interface {
	PlaceWith(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error)
	PlaceAll(ctx context.Context, specs []*workload.Spec) ([]Placed, error)
	PlaceGroup(ctx context.Context, g threads.GroupSpec) ([]Placed, error)
	SubmitWith(spec *workload.Spec, tag string, priority int) (int, error)
	CancelQueued(ticket int) bool
	QueuedInfo() []QueuedEntry
	Pump(ctx context.Context) ([]Placed, error)
	Remove(ctx context.Context, node, instance string) ([]Placed, error)
	FailNode(name string) ([]manager.Resident, error)
	RestoreNode(ctx context.Context, name string) ([]Placed, error)
	Rebalance(ctx context.Context, minImprovement float64) (Move, error)
	SetPowerCap(ctx context.Context, watts float64) error
	EnforceCap(ctx context.Context) (CapReport, error)
	PowerCap() float64
	CapUsage() float64
	Totals(ctx context.Context) (spi, watts float64, err error)
	FreqStates() map[string]int
	State(ctx context.Context) (*State, error)
	Inspect() []NodeInspection
	NodeNames() []string
	Registry() *metrics.Registry
}

// shardablePolicies are the policies NewSharded accepts with shards > 1.
func shardablePolicies() []Policy {
	var out []Policy
	for _, p := range append(Policies(), ColocateSharers, SpreadSharers, LeastEnergy, CapAware) {
		if p != Spread {
			out = append(out, p)
		}
	}
	return out
}

// equivNodePair builds two structurally identical node lists (fresh
// machine instances, same kinds and limits) so the two fleets never
// share mutable state.
func equivNodePair(t *testing.T, r *rand.Rand, nNodes int) (a, b []NodeConfig) {
	t.Helper()
	pm := testPower(t)
	kinds := []func() *machine.Machine{
		machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.FourCoreServer,
	}
	a = make([]NodeConfig, nNodes)
	b = make([]NodeConfig, nNodes)
	for i := 0; i < nNodes; i++ {
		k := r.Intn(len(kinds))
		mpc := 1 + r.Intn(2)
		a[i] = NodeConfig{Machine: kinds[k](), Power: pm, MaxPerCore: mpc}
		b[i] = NodeConfig{Machine: kinds[k](), Power: pm, MaxPerCore: mpc}
	}
	return a, b
}

// journalTap collects a fleet's journal as one flat event stream (batch
// boundaries legitimately differ: a sharded departure and the queue
// cascade it triggers are two operations).
type journalTap struct{ events []wal.Event }

func (j *journalTap) record(batch []wal.Event) { j.events = append(j.events, batch...) }

// samePlaced compares two placement lists field by field, floats by bit
// pattern, victims included.
func samePlaced(a, b []Placed) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Node != y.Node || x.Name != y.Name || x.Core != y.Core || x.Tag != y.Tag ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) ||
			math.Float64bits(x.Watts) != math.Float64bits(y.Watts) ||
			!reflect.DeepEqual(x.Preempted, y.Preempted) {
			return false
		}
	}
	return true
}

// runShardedEquivSweep drives one randomized trace through an unsharded
// and a sharded fleet in lockstep, failing at the first divergence.
func runShardedEquivSweep(t *testing.T, seed int64, cacheCap int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pols := shardablePolicies()
	policy := pols[int(seed)%len(pols)]
	nNodes := 3 + r.Intn(4)
	shards := 2 + r.Intn(2)
	if shards > nNodes {
		shards = nNodes
	}
	flatNodes, shardNodes := equivNodePair(t, r, nNodes)
	fseed := uint64(r.Int63())
	workers := 1 + r.Intn(3)
	var flatLog, shardLog journalTap
	config := func(nodes []NodeConfig, tap *journalTap) Config {
		return Config{
			Nodes: nodes, Policy: policy, QueueCap: 4, Seed: fseed,
			Workers: workers, ScoreCacheCap: cacheCap, Profile: oracle(nil, 0),
			Registry: metrics.NewRegistry(), Journal: tap.record,
		}
	}
	flatFleet, err := New(config(flatNodes, &flatLog))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	shardedFleet, err := NewSharded(config(shardNodes, &shardLog), shards)
	if err != nil {
		t.Fatalf("fleet.NewSharded: %v", err)
	}
	var flat, sharded engine = flatFleet, shardedFleet

	ctx := context.Background()
	suite := workload.Suite()
	pick := func() *workload.Spec { return suite[r.Intn(len(suite))] }
	events := 40 + r.Intn(25)
	for ev := 0; ev < events; ev++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d ev %d (%s, %d shards): %s", seed, ev, policy, shards, fmt.Sprintf(format, args...))
		}
		// both runs one operation on each engine and compares the
		// placements it returned and whether it failed.
		both := func(what string, op func(e engine) ([]Placed, error)) bool {
			t.Helper()
			fp, ferr := op(flat)
			sp, serr := op(sharded)
			if (ferr == nil) != (serr == nil) {
				fail("%s: flat err=%v, sharded err=%v", what, ferr, serr)
			}
			if !samePlaced(fp, sp) {
				fail("%s: flat placed %+v, sharded %+v", what, fp, sp)
			}
			return ferr == nil
		}
		switch op := r.Intn(100); {
		case op < 22: // direct arrival
			spec := pick()
			both("place "+spec.Name, func(e engine) ([]Placed, error) {
				p, err := e.PlaceWith(ctx, spec, PlaceOptions{})
				return []Placed{p}, err
			})
		case op < 32: // batch of 1–4, overfull once the fleet fills up
			specs := make([]*workload.Spec, 1+r.Intn(4))
			for i := range specs {
				specs[i] = pick()
			}
			both(fmt.Sprintf("place-all x%d", len(specs)), func(e engine) ([]Placed, error) {
				return e.PlaceAll(ctx, specs)
			})
		case op < 40: // thread group
			g := threads.GroupSpec{Base: pick(), Threads: 1 + r.Intn(3), SharedFrac: 0.25 * float64(r.Intn(4)), WriteFrac: 0.5}
			both(fmt.Sprintf("place-group %s x%d", g.Base.Name, g.Threads), func(e engine) ([]Placed, error) {
				return e.PlaceGroup(ctx, g)
			})
		case op < 54: // prioritized submission
			spec, prio := pick(), r.Intn(3)
			tag := fmt.Sprintf("job%d", ev)
			ft, ferr := flat.SubmitWith(spec, tag, prio)
			st, serr := sharded.SubmitWith(spec, tag, prio)
			if (ferr == nil) != (serr == nil) || ft != st {
				fail("submit %s class %d: flat (%d, %v), sharded (%d, %v)", spec.Name, prio, ft, ferr, st, serr)
			}
		case op < 62:
			both("pump", func(e engine) ([]Placed, error) { return e.Pump(ctx) })
		case op < 66: // cancel one queued ticket (requeued victims included)
			if qi := flat.QueuedInfo(); len(qi) > 0 {
				ticket := qi[r.Intn(len(qi))].Ticket
				if fc, sc := flat.CancelQueued(ticket), sharded.CancelQueued(ticket); fc != sc {
					fail("cancel %d: flat %t, sharded %t", ticket, fc, sc)
				}
			}
		case op < 84: // departure, cascading into the queue
			var live []NodeInspection
			for _, ni := range flat.Inspect() {
				if len(ni.Residents) > 0 {
					live = append(live, ni)
				}
			}
			if len(live) > 0 {
				ni := live[r.Intn(len(live))]
				res := ni.Residents[r.Intn(len(ni.Residents))]
				if !both("remove "+ni.Name+"/"+res.Name, func(e engine) ([]Placed, error) {
					return e.Remove(ctx, ni.Name, res.Name)
				}) {
					fail("remove %s/%s failed on both engines", ni.Name, res.Name)
				}
			}
		case op < 89: // fail + restore one machine (evicts its residents)
			name := flat.NodeNames()[r.Intn(nNodes)]
			fev, ferr := flat.FailNode(name)
			sev, serr := sharded.FailNode(name)
			if (ferr == nil) != (serr == nil) || len(fev) != len(sev) {
				fail("fail %s: flat (%d evicted, %v), sharded (%d evicted, %v)", name, len(fev), ferr, len(sev), serr)
			}
			if ferr == nil {
				both("restore "+name, func(e engine) ([]Placed, error) { return e.RestoreNode(ctx, name) })
			}
		case op < 94:
			fm, ferr := flat.Rebalance(ctx, 0)
			sm, serr := sharded.Rebalance(ctx, 0)
			if (ferr == nil) != (serr == nil) || fm != sm {
				fail("rebalance: flat (%+v, %v), sharded (%+v, %v)", fm, ferr, sm, serr)
			}
		default: // set (or clear) the watt budget around the current draw, then enforce it
			_, watts, err := flat.Totals(ctx)
			if err != nil {
				fail("totals: %v", err)
			}
			budget := watts * []float64{0, 0.85, 0.97, 1.1, 1.5}[r.Intn(5)]
			if ferr, serr := flat.SetPowerCap(ctx, budget), sharded.SetPowerCap(ctx, budget); ferr != nil || serr != nil {
				fail("set cap %v: flat %v, sharded %v", budget, ferr, serr)
			}
			fr, ferr := flat.EnforceCap(ctx)
			sr, serr := sharded.EnforceCap(ctx)
			if (ferr == nil) != (serr == nil) || !reflect.DeepEqual(fr, sr) {
				fail("enforce cap %v: flat (%+v, %v), sharded (%+v, %v)", budget, fr, ferr, sr, serr)
			}
		}
		if fq, sq := flat.QueuedInfo(), sharded.QueuedInfo(); !reflect.DeepEqual(fq, sq) {
			fail("queue diverged: flat %+v, sharded %+v", fq, sq)
		}
		// The ledger is only maintained (and only reported) under a budget.
		if f, s := flat.CapUsage(), sharded.CapUsage(); flat.PowerCap() > 0 && math.Float64bits(f) != math.Float64bits(s) {
			fail("watt ledger diverged: flat %v, sharded %v", f, s)
		}
		if !reflect.DeepEqual(flatLog.events, shardLog.events) {
			n := min(len(flatLog.events), len(shardLog.events))
			for i := 0; i < n; i++ {
				if flatLog.events[i] != shardLog.events[i] {
					fail("journal event %d: flat %+v, sharded %+v", i, flatLog.events[i], shardLog.events[i])
				}
			}
			fail("journal length: flat %d events, sharded %d", len(flatLog.events), len(shardLog.events))
		}
	}

	// Terminal cross-check: identical state, byte for byte, and rungs.
	stateBytes := func(e engine) []byte {
		st, err := e.State(ctx)
		if err != nil {
			t.Fatalf("seed %d: state: %v", seed, err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if f, s := stateBytes(flat), stateBytes(sharded); string(f) != string(s) {
		t.Fatalf("seed %d (%s): state bytes diverged:\n flat    %s\n sharded %s", seed, policy, f, s)
	}
	if f, s := flat.FreqStates(), sharded.FreqStates(); !reflect.DeepEqual(f, s) {
		t.Fatalf("seed %d (%s): rungs diverged: flat %v, sharded %v", seed, policy, f, s)
	}
}

// TestShardedEquivalence is the 150-seed sweep (24 in -short, so the fast
// CI lane runs it under -race on every push): a sharded fleet must behave
// identically to the unsharded scheduler across randomized heterogeneous
// fleets, shard counts, traces, failures and budgets.
func TestShardedEquivalence(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 24
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			cacheCap := 0 // default: cached
			if seed%3 == 0 {
				cacheCap = -1 // cold: every decision re-solved
			}
			runShardedEquivSweep(t, int64(seed), cacheCap)
		})
	}
}

// TestOneShardSpreadMatchesFlat: a one-shard Sharded fleet under Spread —
// the one policy NewSharded accepts only unsplit — decides exactly like
// the unsharded fleet. Spread's rotation cursor is read by the decision
// and advanced by the commit, so its placements and pumps stay in-lock on
// the whole fleet: a detached pass would read the whole fleet's cursor and
// advance the shard's, and the second placement would already differ.
func TestOneShardSpreadMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	flatNodes, shardNodes := equivNodePair(t, r, 4)
	var flatLog, shardLog journalTap
	config := func(nodes []NodeConfig, tap *journalTap) Config {
		return Config{
			Nodes: nodes, Policy: Spread, QueueCap: 4, Profile: oracle(nil, 0),
			Registry: metrics.NewRegistry(), Journal: tap.record,
		}
	}
	flat, err := New(config(flatNodes, &flatLog))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(config(shardNodes, &shardLog), 1)
	if err != nil {
		t.Fatal(err)
	}
	engines := [2]engine{flat, sharded}
	ctx := context.Background()
	suite := workload.Suite()
	both := func(what string, op func(e engine) ([]Placed, error)) {
		t.Helper()
		fp, ferr := op(engines[0])
		sp, serr := op(engines[1])
		if (ferr == nil) != (serr == nil) || !samePlaced(fp, sp) {
			t.Fatalf("%s: flat %+v (%v), sharded %+v (%v)", what, fp, ferr, sp, serr)
		}
	}
	for i := 0; i < 12; i++ {
		spec := suite[i%len(suite)]
		both(fmt.Sprintf("place %d (%s)", i, spec.Name), func(e engine) ([]Placed, error) {
			p, err := e.PlaceWith(ctx, spec, PlaceOptions{})
			return []Placed{p}, err
		})
	}
	for i := 0; i < 3; i++ {
		spec := suite[(12+i)%len(suite)]
		for _, e := range engines {
			if _, err := e.SubmitWith(spec, fmt.Sprintf("job%d", i), i%2); err != nil {
				t.Fatal(err)
			}
		}
	}
	both("pump", func(e engine) ([]Placed, error) { return e.Pump(ctx) })
	for i := 0; i < 4; i++ {
		var ni NodeInspection
		for _, n := range flat.Inspect() {
			if len(n.Residents) > 0 {
				ni = n
				break
			}
		}
		if ni.Name == "" {
			break
		}
		both("remove "+ni.Name, func(e engine) ([]Placed, error) { return e.Remove(ctx, ni.Name, ni.Residents[0].Name) })
		both("place after remove", func(e engine) ([]Placed, error) {
			p, err := e.PlaceWith(ctx, suite[i], PlaceOptions{})
			return []Placed{p}, err
		})
	}
	both("pump", func(e engine) ([]Placed, error) { return e.Pump(ctx) })
	if fq, sq := flat.QueuedInfo(), sharded.QueuedInfo(); !reflect.DeepEqual(fq, sq) {
		t.Fatalf("queue: flat %+v, sharded %+v", fq, sq)
	}
	if !reflect.DeepEqual(flatLog.events, shardLog.events) {
		t.Fatalf("journals diverged:\n flat    %+v\n sharded %+v", flatLog.events, shardLog.events)
	}
	fs, _ := flat.State(ctx)
	ss, _ := sharded.State(ctx)
	if !reflect.DeepEqual(fs, ss) {
		t.Fatalf("state: flat %+v, sharded %+v", fs, ss)
	}
}

// TestShardedCountersReportWholeFleet: a sharded fleet's shards count
// their solves into the whole fleet's counter, as they already share its
// score memo and solver state, so the promoted SolverInvocations,
// ScoreCacheStats and SolverStateStats report every solve — the optimistic
// path's, which all run on shards, included. Fed the same stream at one
// worker, the unsharded fleet does the same work, so the counts are equal.
func TestShardedCountersReportWholeFleet(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	flatNodes, shardNodes := equivNodePair(t, r, 6)
	config := func(nodes []NodeConfig) Config {
		return Config{
			Nodes: nodes, Policy: LeastDegradation, QueueCap: 4, Workers: 1,
			Profile: oracle(nil, 0), Registry: metrics.NewRegistry(),
		}
	}
	flat, err := New(config(flatNodes))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(config(shardNodes), 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	suite := workload.Suite()
	for _, e := range []engine{flat, sharded} {
		var fifo []Placed
		for i := 0; i < 40; i++ {
			if len(fifo) == 8 {
				if _, err := e.Remove(ctx, fifo[0].Node, fifo[0].Name); err != nil {
					t.Fatal(err)
				}
				fifo = fifo[1:]
			}
			if i%5 == 4 {
				if _, err := e.SubmitWith(suite[i%len(suite)], "", 0); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Pump(ctx); err != nil {
					t.Fatal(err)
				}
				continue
			}
			p, err := e.PlaceWith(ctx, suite[(3*i)%len(suite)], PlaceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fifo = append(fifo, p)
		}
	}
	if sharded.SolverInvocations() == 0 || sharded.ScoreCacheStats().Lookups == 0 || sharded.SolverStateStats().Misses == 0 {
		t.Fatalf("sharded counters are empty: %d solves, %+v, %+v",
			sharded.SolverInvocations(), sharded.ScoreCacheStats(), sharded.SolverStateStats())
	}
	if f, s := flat.SolverInvocations(), sharded.SolverInvocations(); f != s {
		t.Errorf("SolverInvocations: flat %d, sharded %d", f, s)
	}
	// Shards score concurrently, so a lookup that one shard's solve answers
	// for another is a singleflight share rather than a hit: only the sum is
	// the stream's.
	f, s := flat.ScoreCacheStats(), sharded.ScoreCacheStats()
	if f.Hits+f.Shared != s.Hits+s.Shared {
		t.Errorf("ScoreCacheStats answered lookups: flat %+v, sharded %+v", f, s)
	}
	f.Hits, f.Shared, s.Hits, s.Shared = 0, 0, 0, 0
	if f != s {
		t.Errorf("ScoreCacheStats: flat %+v, sharded %+v", f, s)
	}
	if f, s := flat.SolverStateStats(), sharded.SolverStateStats(); f != s {
		t.Errorf("SolverStateStats: flat %+v, sharded %+v", f, s)
	}
}
