// Cache-correctness tests for the score memo: counter accounting under
// concurrency, invalidation exactness, staleness (cached vs cold bit
// equality), and the rebalance solve-count regression guarded by the
// "fleet.solve" intercept seam.

package fleet

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

// TestScoreCacheConcurrentPlaceHammer hammers Place/Remove from several
// goroutines (run it under -race) and checks the counter invariant the
// stats documentation promises: every lookup resolves to exactly one of a
// hit, a miss, or a shared in-flight ride.
func TestScoreCacheConcurrentPlaceHammer(t *testing.T) {
	for _, pol := range []Policy{LeastDegradation, LeastWatts, BinPack} {
		t.Run(pol.String(), func(t *testing.T) {
			f := testFleet(t, pol, nil)
			ctx := context.Background()
			specs := sixteenSpecs()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						spec := specs[(w*7+i)%len(specs)]
						p, err := f.Place(ctx, spec)
						if err != nil {
							t.Errorf("worker %d: Place(%s): %v", w, spec.Name, err)
							return
						}
						if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
							t.Errorf("worker %d: Remove(%s): %v", w, p.Name, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			st := f.ScoreCacheStats()
			if st.Lookups != st.Hits+st.Misses+st.Shared {
				t.Fatalf("counter invariant broken: lookups=%d hits=%d misses=%d shared=%d",
					st.Lookups, st.Hits, st.Misses, st.Shared)
			}
			// LeastWatts reads watts only, through the same memo.
			if st.Lookups == 0 {
				t.Fatal("expected group-memo traffic")
			}
		})
	}
}

// TestFailNodeInvalidatesExactlyAffectedKeys proves FailNode drops exactly
// the failing node's current group entries — SPI terms and watts alike —
// and its decision keys, nothing belonging to any other node, and counts
// the drops.
func TestFailNodeInvalidatesExactlyAffectedKeys(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	ctx := context.Background()
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		t.Fatal(err)
	}
	// Totals reads every live node's SPI and watts through the memo, so
	// every busy group has an entry before the failure.
	if _, _, err := f.Totals(ctx); err != nil {
		t.Fatal(err)
	}

	target := f.nodes[1]
	name := target.cfg.Name
	asg := target.asg
	expect := map[string]bool{}
	for _, group := range target.cfg.Machine.Groups {
		busy := busyCores(group, asg)
		if len(busy) > 0 {
			expect[scoreKey(target.cfg.Machine, target.cm.Solver, target.power, busy, asg)] = true
		}
	}
	if len(expect) == 0 {
		t.Fatal("target node unexpectedly idle")
	}

	keySet := func(keys []string) map[string]bool {
		s := make(map[string]bool, len(keys))
		for _, k := range keys {
			s[k] = true
		}
		return s
	}
	beforeG := keySet(f.scores.lru.Keys())
	beforeD := keySet(f.scores.decisions.Keys())
	inv0 := f.ScoreCacheStats().Invalidated

	if _, err := f.FailNode(name); err != nil {
		t.Fatal(err)
	}

	afterG := keySet(f.scores.lru.Keys())
	afterD := keySet(f.scores.decisions.Keys())
	for k := range beforeG {
		if !afterG[k] && !expect[k] {
			t.Errorf("foreign group key dropped: %q", k)
		}
	}
	for k := range expect {
		if !beforeG[k] {
			t.Errorf("the target's group %q was not memoized before FailNode", k)
		}
		if afterG[k] {
			t.Errorf("stale group key survived FailNode: %q", k)
		}
	}
	prefix := name + "\x00"
	for k := range beforeD {
		switch {
		case strings.HasPrefix(k, prefix) && afterD[k]:
			t.Errorf("stale decision key survived FailNode: %q", k)
		case !strings.HasPrefix(k, prefix) && !afterD[k]:
			t.Errorf("foreign decision key dropped: %q", k)
		}
	}
	if got := f.ScoreCacheStats().Invalidated; got == inv0 {
		t.Error("FailNode invalidated nothing")
	}
	// Every other node's entries survived whole: their SPI and watts are
	// read again without a miss.
	before := f.ScoreCacheStats()
	if _, _, err := f.Totals(ctx); err != nil {
		t.Fatal(err)
	}
	if after := f.ScoreCacheStats(); after.Misses != before.Misses || after.Hits == before.Hits {
		t.Errorf("totals after FailNode: memo %+v → %+v, want hits only", before, after)
	}
}

// TestCachedMatchesColdAcrossMutations drives one cached and one cold
// fleet through an identical mutation sequence — batch placement,
// departures, a node failure and restore, a rebalance — and asserts every
// decision and every reported float is bit-identical at each step. This is
// the staleness proof: no mutation may leave a cached answer behind that a
// cold fleet would not produce.
func TestCachedMatchesColdAcrossMutations(t *testing.T) {
	ctx := context.Background()
	warm := testFleet(t, LeastDegradation, nil)
	cold := testFleet(t, LeastDegradation, func(c *Config) { c.ScoreCacheCap = -1 })

	sameTotals := func(step string) {
		t.Helper()
		ws, ww, err := warm.Totals(ctx)
		if err != nil {
			t.Fatalf("%s: warm totals: %v", step, err)
		}
		cs, cw, err := cold.Totals(ctx)
		if err != nil {
			t.Fatalf("%s: cold totals: %v", step, err)
		}
		if math.Float64bits(ws) != math.Float64bits(cs) || math.Float64bits(ww) != math.Float64bits(cw) {
			t.Fatalf("%s: totals diverge: warm (%.17g SPI, %.17g W) cold (%.17g SPI, %.17g W)",
				step, ws, ww, cs, cw)
		}
	}
	samePlaced := func(step string, a, b []Placed) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d placements", step, len(a), len(b))
		}
		for i := range a {
			if a[i].Node != b[i].Node || a[i].Name != b[i].Name || a[i].Core != b[i].Core ||
				math.Float64bits(a[i].Watts) != math.Float64bits(b[i].Watts) ||
				math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				t.Fatalf("%s: placement %d diverges: warm %+v cold %+v", step, i, a[i], b[i])
			}
		}
	}

	wp, err := warm.PlaceAll(ctx, sixteenSpecs()[:10])
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cold.PlaceAll(ctx, sixteenSpecs()[:10])
	if err != nil {
		t.Fatal(err)
	}
	samePlaced("place-all", wp, cp)
	sameTotals("place-all")

	for _, p := range wp[:3] {
		if _, err := warm.Remove(ctx, p.Node, p.Name); err != nil {
			t.Fatal(err)
		}
		if _, err := cold.Remove(ctx, p.Node, p.Name); err != nil {
			t.Fatal(err)
		}
	}
	sameTotals("departures")

	wf, err := warm.FailNode(warm.NodeNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cold.FailNode(cold.NodeNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(wf) != len(cf) {
		t.Fatalf("fail evicted %d vs %d residents", len(wf), len(cf))
	}
	sameTotals("fail-node")

	wr, err := warm.RestoreNode(ctx, warm.NodeNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cold.RestoreNode(ctx, cold.NodeNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	samePlaced("restore-node", wr, cr)
	sameTotals("restore-node")

	wm, werr := warm.Rebalance(ctx, 0)
	cm, cerr := cold.Rebalance(ctx, 0)
	if (werr == nil) != (cerr == nil) {
		t.Fatalf("rebalance diverges: warm err %v, cold err %v", werr, cerr)
	}
	if werr == nil {
		if wm.From != cm.From || wm.To != cm.To || wm.Name != cm.Name || wm.Core != cm.Core ||
			math.Float64bits(wm.SPIBefore) != math.Float64bits(cm.SPIBefore) ||
			math.Float64bits(wm.SPIAfter) != math.Float64bits(cm.SPIAfter) {
			t.Fatalf("rebalance move diverges: warm %+v cold %+v", wm, cm)
		}
	}
	sameTotals("rebalance")

	// A flush may never change an answer — values are pure functions of
	// their keys.
	warm.FlushScoreCache()
	if st := warm.ScoreCacheStats(); st.Entries != 0 || st.DecisionEntries != 0 {
		t.Fatalf("flush left %d term + %d decision entries", st.Entries, st.DecisionEntries)
	}
	if ss := warm.SolverStateStats(); ss.Entries != 0 {
		t.Fatalf("flush left %d solver entries", ss.Entries)
	}
	sameTotals("post-flush")
}

// TestGroupMemoWattsBitIdentical: the group memo changes only speed, never
// bytes. Core's stateless whole-assignment estimate, the memo's populating
// (miss) read and its memoized (hit) read of the same assignment agree to
// the bit — on partially idle groups too, where the idle cores' term is
// recomputed outside the memo on every read.
func TestGroupMemoWattsBitIdentical(t *testing.T) {
	ctx := context.Background()
	m := machine.FourCoreServer()
	fv := func(name string) *core.FeatureVector { return core.TruthFeature(workload.ByName(name), m) }
	for _, tc := range []struct {
		label string
		asg   core.Assignment
	}{
		{"all busy", core.Assignment{{fv("mcf"), fv("gzip")}, {fv("twolf")}, {fv("art")}, {fv("vpr")}}},
		{"half idle", core.Assignment{{fv("mcf"), fv("art")}, nil, {fv("swim")}, nil}},
		{"single solo", core.Assignment{{fv("vpr")}, nil, nil, nil}},
	} {
		f := scoreFleet(t, m, LeastWatts, 0)
		n := f.nodes[0]
		cold, err := n.cm.EstimateAssignment(tc.asg)
		if err != nil {
			t.Fatalf("%s: stateless estimate: %v", tc.label, err)
		}
		_, miss, err := f.nodeEstimate(ctx, n, tc.asg, core.ReadWatts)
		if err != nil {
			t.Fatalf("%s: populating read: %v", tc.label, err)
		}
		st := f.ScoreCacheStats()
		if st.Hits != 0 || st.Misses == 0 || uint64(st.Entries) != st.Misses {
			t.Fatalf("%s: populating stats = %+v, want only misses, one entry each", tc.label, st)
		}
		_, hit, err := f.nodeEstimate(ctx, n, tc.asg, core.ReadWatts)
		if err != nil {
			t.Fatalf("%s: memoized read: %v", tc.label, err)
		}
		if st2 := f.ScoreCacheStats(); st2.Hits != st.Misses || st2.Misses != st.Misses {
			t.Fatalf("%s: memoized stats = %+v, want every busy group to hit", tc.label, st2)
		}
		if math.Float64bits(cold) != math.Float64bits(miss) || math.Float64bits(cold) != math.Float64bits(hit) {
			t.Fatalf("%s: estimates diverge: stateless %x, miss %x, hit %x", tc.label,
				math.Float64bits(cold), math.Float64bits(miss), math.Float64bits(hit))
		}
	}
}

// TestRebalanceSolvesEachKeyOnce is the regression test for the rebalance
// dedupe fix: within one pass, no memo key may be solved more than once —
// every candidate sharing a source resident (or a target group already
// scored) must recall the memoized terms. The "fleet.solve" seam observes
// actual solves.
func TestRebalanceSolvesEachKeyOnce(t *testing.T) {
	var mu sync.Mutex
	solves := map[string]int{}
	f := testFleet(t, LeastDegradation, func(c *Config) {
		c.Intercept = func(site, key string) error {
			if site == "fleet.solve" {
				mu.Lock()
				solves[key]++
				mu.Unlock()
			}
			return nil
		}
	})
	ctx := context.Background()
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	clear(solves) // count only the rebalance pass
	mu.Unlock()

	if _, err := f.Rebalance(ctx, 1e9); !errors.Is(err, manager.ErrNoImprovement) {
		t.Fatalf("want ErrNoImprovement sentinel, got %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(solves) == 0 {
		t.Fatal("expected the pass to solve at least one new key")
	}
	for k, n := range solves {
		if n > 1 {
			t.Errorf("key %q solved %d times in one pass", k, n)
		}
	}
}

// TestDecisionMemoCounters exercises the decision memo end to end: a first
// placement misses and populates it, and replaying the exact same
// (assignment, arrival) state hits on every live node through the all-hit
// fast path, which credits its probes in bulk.
func TestDecisionMemoCounters(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	ctx := context.Background()
	spec := sixteenSpecs()[0]

	p1, err := f.Place(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := f.ScoreCacheStats()
	if st.DecisionMisses != uint64(len(f.nodes)) {
		t.Fatalf("first place: %d decision misses, want %d", st.DecisionMisses, len(f.nodes))
	}
	if st.DecisionEntries != len(f.nodes) {
		t.Fatalf("first place memoized %d decisions, want %d", st.DecisionEntries, len(f.nodes))
	}
	if st.DecisionHits != 0 {
		t.Fatalf("first place: %d decision hits, want 0", st.DecisionHits)
	}

	// Remove restores the exact pre-place assignment content, so replaying
	// the same arrival must hit every node's memoized decision.
	if _, err := f.Remove(ctx, p1.Node, p1.Name); err != nil {
		t.Fatal(err)
	}
	p2, err := f.Place(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Node != p1.Node || p2.Core != p1.Core ||
		math.Float64bits(p2.Score) != math.Float64bits(p1.Score) {
		t.Fatalf("replayed placement diverges: %+v vs %+v", p2, p1)
	}
	st = f.ScoreCacheStats()
	if st.DecisionHits != uint64(len(f.nodes)) {
		t.Fatalf("replay: %d decision hits, want %d", st.DecisionHits, len(f.nodes))
	}
}

// TestKeyConstruction pins the content-addressing down: any difference in
// machine kind, solver, power model, busy set, per-core grouping, or
// arrival must
// produce a distinct key, and position must matter (a process on core 0 is
// not a process on core 1).
func TestKeyConstruction(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	ctx := context.Background()
	spec := sixteenSpecs()[0]
	if err := f.feats.resolve(ctx, []*workload.Spec{spec, sixteenSpecs()[1]}); err != nil {
		t.Fatal(err)
	}
	n := f.nodes[0]
	m := n.cfg.Machine
	fa, err := f.feats.get(ctx, n.kind, spec)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := f.feats.get(ctx, n.kind, sixteenSpecs()[1])
	if err != nil {
		t.Fatal(err)
	}

	keys := map[string]string{}
	add := func(label, k string) {
		t.Helper()
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision: %s and %s share %q", prev, label, k)
		}
		keys[k] = label
	}
	asg0 := core.Assignment{{fa}, nil}
	asg1 := core.Assignment{nil, {fa}}
	asg2 := core.Assignment{{fa}, {fb}}
	asg3 := core.Assignment{{fa, fb}, nil}
	add("core0", scoreKey(m, core.SolverAuto, 0, busyCores(m.Groups[0], asg0), asg0))
	add("core1", scoreKey(m, core.SolverAuto, 0, busyCores(m.Groups[0], asg1), asg1))
	add("split", scoreKey(m, core.SolverAuto, 0, busyCores(m.Groups[0], asg2), asg2))
	add("stacked", scoreKey(m, core.SolverAuto, 0, busyCores(m.Groups[0], asg3), asg3))
	add("solver", scoreKey(m, core.SolverWindow, 0, busyCores(m.Groups[0], asg0), asg0))
	add("power", scoreKey(m, core.SolverAuto, 1, busyCores(m.Groups[0], asg0), asg0))

	dk := map[string]string{}
	addD := func(label, k string) {
		t.Helper()
		if prev, dup := dk[k]; dup {
			t.Errorf("decision key collision: %s and %s share %q", prev, label, k)
		}
		dk[k] = label
	}
	addD("empty-a", decisionKey(n, fa, core.Assignment{nil, nil}))
	addD("empty-b", decisionKey(n, fb, core.Assignment{nil, nil}))
	addD("occ0", decisionKey(n, fa, asg0))
	addD("occ1", decisionKey(n, fa, asg1))
	addD("other-node", decisionKey(f.nodes[1], fa, core.Assignment{nil, nil}))
}

// TestMemoHitAllocs: a decision-memo probe and a group-memo hit build
// their keys in the caller's scratch and look them up without a string,
// so a hit allocates nothing — for an SPI read, a watts-only read, and a
// whole-node watts read alike.
func TestMemoHitAllocs(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, nil)
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:6]); err != nil {
		t.Fatal(err)
	}
	spec := sixteenSpecs()[6]
	// A placement and its departure leave every node's decision for spec
	// memoized against the content it has again.
	p, err := f.Place(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
		t.Fatal(err)
	}
	f.lock()
	defer f.unlock()
	n := f.nodes[0]
	in, err := f.scoreInLocked(ctx, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	before := f.ScoreCacheStats()
	allocs := testing.AllocsPerRun(100, func() {
		var kb [128]byte
		if _, ok := f.scores.getDecision(appendDecisionKey(kb[:0], in.n, in.feat, in.suffix, in.fix)); !ok {
			t.Fatal("decision memo missed")
		}
	})
	if allocs != 0 {
		t.Errorf("a decision-memo hit allocates %v objects, want 0", allocs)
	}

	sc := getScratch()
	defer putScratch(sc)
	asg := f.assignmentOf(n)
	if g := n.cfg.Machine.Groups[0]; idleCores(g, asg) == len(g) {
		t.Fatal("node 0's group is idle; the pin would probe nothing")
	}
	for _, read := range []core.Readout{core.ReadSPI, core.ReadWatts} {
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := f.groupEstimate(ctx, f.ctab, sc, n, asg, 0, read, &sc.cand); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("a group-memo hit reading %d allocates %v objects, want 0", read, allocs)
		}
	}
	// The whole-node watts read every cap resync and gauge scrape makes.
	allocs = testing.AllocsPerRun(100, func() {
		if _, _, err := f.nodeEstimate(ctx, n, asg, core.ReadWatts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a memoized whole-node watts read allocates %v objects, want 0", allocs)
	}
	after := f.ScoreCacheStats()
	if after.Hits == before.Hits || after.Misses != before.Misses || after.DecisionMisses != before.DecisionMisses {
		t.Fatalf("memo stats %+v → %+v: the pins need hits only", before, after)
	}
}

// decisionKey is the decision-memo key of n for feat against asg at the
// node's base rung.
func decisionKey(n *node, feat *core.FeatureVector, asg core.Assignment) string {
	return string(appendDecisionKey(nil, n, feat, decisionSuffix(asg), n.cfg.Machine.Freq.BaseIx()))
}
