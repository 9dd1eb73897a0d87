package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// scoreFleet builds a two-node fleet of one machine preset, two residents
// per core at most, so the second node's ledger row is what usedExcept sees
// from the first.
func scoreFleet(t testing.TB, m *machine.Machine, policy Policy, scoreCap int) *Fleet {
	t.Helper()
	pm := testPower(t)
	f, err := New(Config{
		Nodes: []NodeConfig{
			{Machine: m, Power: pm, MaxPerCore: 2},
			{Machine: m, Power: pm, MaxPerCore: 2},
		},
		Policy:        policy,
		Profile:       oracle(nil, 0),
		ScoreCacheCap: scoreCap,
		PowerCap:      1e9, // attaches the ledger; the sweep sets the budget per case
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

// scorePool returns the feature vectors the sweep draws residents and
// arrivals from: the whole suite plus co-located thread-group bundles
// (Members 2 and 3), one vector per name so equal names are equal pointers.
func scorePool(t testing.TB, m *machine.Machine) []*core.FeatureVector {
	t.Helper()
	var pool []*core.FeatureVector
	for _, s := range workload.Suite() {
		pool = append(pool, core.TruthFeature(s, m))
	}
	for _, g := range []threads.GroupSpec{
		{Base: workload.ByName("gzip"), Threads: 2, SharedFrac: 0.5, WriteFrac: 0.5},
		{Base: workload.ByName("mcf"), Threads: 3, SharedFrac: 0.3, WriteFrac: 0.2},
	} {
		b, err := g.Bundle(g.Threads, 0)
		if err != nil {
			t.Fatalf("bundle: %v", err)
		}
		fv := core.TruthFeature(b, m)
		if fv.Members != g.Threads {
			t.Fatalf("bundle %s has Members %d, want %d", b.Name, fv.Members, g.Threads)
		}
		pool = append(pool, fv)
	}
	return pool
}

func sameScore(a, b nodeScore) bool {
	return a.OK == b.OK && a.Core == b.Core && a.Freq == b.Freq &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Rel) == math.Float64bits(b.Rel)
}

// TestScoreNodeColdMatchesReference sweeps the fused-pass scorer against
// the scorer it replaced (score_reference_test.go): all eight policies ×
// {memo on, ScoreCacheCap −1} × {capped, uncapped} × the four presets ×
// 50 seeded assignments whose occupancy runs from empty to full, with
// thread-group bundles among the residents and every ladder rung as the
// node's current state. Every nodeScore field must agree bit for bit. The
// two scorers run on fleets of their own, so neither reads what the other
// memoized.
func TestScoreNodeColdMatchesReference(t *testing.T) {
	ctx := context.Background()
	presets := []func() *machine.Machine{
		machine.FourCoreServer, machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.FourCoreLittle,
	}
	policies := []Policy{
		LeastDegradation, LeastWatts, BinPack, Spread, ColocateSharers, SpreadSharers, LeastEnergy, CapAware,
	}
	for _, preset := range presets {
		m := preset()
		pool := scorePool(t, m)
		for _, policy := range policies {
			for _, scoreCap := range []int{0, -1} {
				for _, capped := range []bool{false, true} {
					got, ref := scoreFleet(t, m, policy, scoreCap), scoreFleet(t, m, policy, scoreCap)
					name := fmt.Sprintf("%s/%s/cache%d/capped=%v", m.Name, policy, scoreCap, capped)
					filtered, full := 0, 0
					for seed := int64(0); seed < 50; seed++ {
						rng := rand.New(rand.NewSource(seed))
						asg := make(core.Assignment, m.NumCores)
						for c := range asg {
							// Seed 0 scores the empty node and seed 1 the full
							// one; the rest draw each core's occupancy.
							k := rng.Intn(3)
							if seed < 2 {
								k = 2 * int(seed)
							}
							for ; k > 0; k-- {
								asg[c] = append(asg[c], pool[rng.Intn(len(pool))])
							}
						}
						feat := pool[rng.Intn(len(pool))]
						fix := rng.Intn(m.Freq.BaseIx() + 1)
						// A budget between the node's post-placement draw at the
						// lowest rung and at the base rung makes the cap filter
						// reject some (core, state) slots and admit others.
						budget := 0.0
						if capped {
							w, err := got.nodes[0].cm.EstimateAdditionContext(ctx, asg, feat, 0)
							if err != nil {
								t.Fatalf("%s seed %d: %v", name, seed, err)
							}
							static := staticWatts(got.nodes[0])
							budget = got.capL.nodeWatts("m1") + static + (w-static)*(0.3+0.9*rng.Float64())
						}
						got.capL.setCap(budget)
						ref.capL.setCap(budget)
						a, err := got.scoreNodeCold(ctx, got.ctab, got.nodes[0], feat, asg, fix)
						if err != nil {
							t.Fatalf("%s seed %d: %v", name, seed, err)
						}
						b, err := ref.refScoreNodeCold(ctx, ref.nodes[0], feat, asg, fix)
						if err != nil {
							t.Fatalf("%s seed %d: reference: %v", name, seed, err)
						}
						if !sameScore(a, b) {
							t.Fatalf("%s seed %d: scoreNodeCold = %+v, reference = %+v", name, seed, a, b)
						}
						if !a.OK {
							full++
						} else if policy == CapAware && a.Freq != m.Freq.BaseIx()+1 {
							filtered++
						}
					}
					// The sweep must reach the branches it is there for: the
					// full node everywhere, and under an active cap both
					// slots priced off the base rung and nodes priced out.
					if full == 0 {
						t.Errorf("%s: no seed scored a node without an admissible slot", name)
					}
					if policy == CapAware && capped && (filtered == 0 || full < 2) {
						t.Errorf("%s: the cap filtered %d decisions off the base rung and rejected %d nodes", name, filtered, full-1)
					}
				}
			}
		}
	}
}

// TestScoreNodeColdWork pins how much solving one cap-aware score costs on
// a four-core server with one resident on every core (both cache groups
// busy, every core admissible): 2 base + 4 candidate group passes, and
// through the operation's combination table each distinct contended
// combination solved once — the 2 base pairs and the 4 pairs the newcomer
// forms, where the passes meet 2·1 + 4·2 = 10. A full node costs nothing
// at all.
func TestScoreNodeColdWork(t *testing.T) {
	ctx := context.Background()
	m := machine.FourCoreServer()
	fv := func(name string) *core.FeatureVector { return core.TruthFeature(workload.ByName(name), m) }
	asg := core.Assignment{{fv("mcf")}, {fv("art")}, {fv("swim")}, {fv("applu")}}
	feat := fv("equake")
	for _, scoreCap := range []int{-1, 0} {
		f := scoreFleet(t, m, CapAware, scoreCap)
		f.capL.setCap(1e6)
		n := f.nodes[0]
		s, err := f.scoreNodeCold(ctx, f.ctab, n, feat, asg, n.freqIx)
		if err != nil || !s.OK {
			t.Fatalf("cache %d: score = %+v, %v", scoreCap, s, err)
		}
		if got := f.SolverInvocations(); got != 6 {
			t.Errorf("cache %d: %d group passes, want 2 base + 4 candidate", scoreCap, got)
		}
		// Every combination of the six passes is contended here (each pair's
		// appetites exceed the 16 ways).
		if got := f.ctab.Solves(); got != 6 {
			t.Errorf("cache %d: the table sent %d combinations to the solver, want 2 base + 4 new", scoreCap, got)
		}
		if scoreCap == 0 {
			// The solver state sees only what the table could not answer;
			// the watts memo is asked once per pass.
			st := f.SolverStateStats()
			if got := st.Hits + st.Misses + st.Rejected; got != 6 {
				t.Errorf("%d contended solves reached the solver state, want 6", got)
			}
			if got := st.WattsHits + st.WattsMisses; got != 6 {
				t.Errorf("%d watts-memo lookups, want one per group pass (6)", got)
			}
		}
		f.ctab.Reset()

		// MaxPerCore is 2: doubling every core fills the node.
		fullAsg := make(core.Assignment, len(asg))
		for c := range asg {
			fullAsg[c] = []*core.FeatureVector{asg[c][0], feat}
		}
		before, stBefore := f.SolverInvocations(), f.SolverStateStats()
		s, err = f.scoreNodeCold(ctx, f.ctab, n, feat, fullAsg, n.freqIx)
		if err != nil || s != (nodeScore{}) {
			t.Fatalf("cache %d: full node scored %+v, %v", scoreCap, s, err)
		}
		if got := f.SolverInvocations() - before; got != 0 {
			t.Errorf("cache %d: a full node ran %d group passes", scoreCap, got)
		}
		if st := f.SolverStateStats(); st != stBefore {
			t.Errorf("cache %d: a full node touched the solver state: %+v -> %+v", scoreCap, stBefore, st)
		}
		if got := f.ctab.Len(); got != 0 {
			t.Errorf("cache %d: a full node left %d combinations in the table", scoreCap, got)
		}
	}
}

// TestCappedCommitSolvesNothing pins the commit side of one lock hold: after
// a cap-aware score of a four-core server, the commit's cap estimate of the
// winning slot and the ledger re-sync that follows it price combinations
// the score already solved, so the table sends nothing new to the solver;
// releasing the lock empties the table.
func TestCappedCommitSolvesNothing(t *testing.T) {
	ctx := context.Background()
	m := machine.FourCoreServer()
	f := scoreFleet(t, m, CapAware, -1)
	f.capL.setCap(1e6)
	n := f.nodes[0]
	for c, name := range []string{"mcf", "art", "swim", "applu"} {
		if _, _, err := f.placeAtLocked(ctx, n, workload.ByName(name), c, PlaceOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	spec := workload.ByName("equake")
	feat, err := f.feats.get(ctx, n.kind, spec)
	if err != nil {
		t.Fatal(err)
	}
	f.lock()
	s, err := f.scoreNodeCold(ctx, f.ctab, n, feat, f.assignmentOf(n), n.freqIx)
	if err != nil || !s.OK {
		f.unlock()
		t.Fatalf("score = %+v, %v", s, err)
	}
	scored := f.ctab.Solves()
	_, err = f.commitLocked(ctx, spec, PlaceOptions{}, 0, s)
	solved := f.ctab.Solves() - scored
	f.unlock()
	if err != nil {
		t.Fatal(err)
	}
	if scored != 6 || solved != 0 {
		t.Errorf("the score solved %d combinations and the commit %d more, want 6 and 0", scored, solved)
	}
	if got := f.ctab.Len(); got != 0 {
		t.Errorf("%d combinations outlived the lock", got)
	}
}
