package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/parallel"
	"mpmc/internal/sched"
	"mpmc/internal/workload"
)

// This file keeps the placement scoring scoreFeasible replaced — every
// feasible candidate handed to the parallel engine, each one consulting
// the seam, the feature cache and the decision memo on its worker — as the
// test-only reference, and sweeps the two-phase routine against it. The
// in-lock reference is Pipeline.Decide over a prioritizer that calls
// scoreNode; the detached reference is the per-node view capture and the
// hand copy of Decide that the detached scorer used to be.

// scoreNode is the reference single-candidate scorer: seam, feature
// resolve, counted memo probe, cold scoring, in that order.
func (f *Fleet) scoreNode(ctx context.Context, n *node, spec *workload.Spec) (nodeScore, error) {
	if f.cfg.Intercept != nil {
		if err := f.cfg.Intercept("fleet.score", n.cfg.Name); err != nil {
			return nodeScore{}, err
		}
	}
	feat, err := f.feats.get(ctx, n.kind, spec)
	if err != nil {
		return nodeScore{}, err
	}
	asg := f.assignmentOf(n)
	useMemo := f.scores != nil && f.cfg.Policy != CapAware
	var dkey string
	if useMemo {
		dkey = f.decisionKeyOf(n, feat)
		if s, ok := f.scores.getDecision(dkey); ok {
			return s, nil
		}
	}
	s, err := f.scoreNodeCold(ctx, nil, n, feat, asg, n.freqIx)
	if err == nil && useMemo {
		f.scores.putDecision(dkey, s)
	}
	return s, err
}

// refPrioritizer is the reference model prioritizer (scoreNode verbatim).
type refPrioritizer struct{ f *Fleet }

func (p refPrioritizer) Name() string { return "model:" + p.f.cfg.Policy.String() }

func (p refPrioritizer) Score(ctx context.Context, a sched.Arrival, n *sched.CandidateNode) (sched.Score, error) {
	return p.f.scoreNode(ctx, p.f.nodes[n.Index], a.Payload.(*workload.Spec))
}

// refPipeline assembles f's policy bundle around the reference prioritizer.
func refPipeline(t testing.TB, f *Fleet) *sched.Pipeline {
	t.Helper()
	var prio sched.Prioritizer = refPrioritizer{f}
	if f.cfg.Policy == Spread {
		prio = spreadPrioritizer{f}
	}
	preds := append([]sched.Predicate{sched.NodeUp{}}, f.cfg.ExtraPredicates...)
	pipe, err := sched.New(f.cfg.Policy.String(), preds,
		[]sched.Weighted{{Prioritizer: prio, Weight: 1}}, f.pipe.pipe.Selector())
	if err != nil {
		t.Fatal(err)
	}
	pipe.MaxFeasible = f.cfg.MaxFeasible
	return pipe
}

// refFleet places through the reference in-lock decision: Pipeline.Decide
// fanned out over the parallel engine, then the production commit.
type refFleet struct {
	*Fleet
	pipe *sched.Pipeline
}

func (r refFleet) Place(ctx context.Context, spec *workload.Spec) (Placed, error) {
	f := r.Fleet
	if err := f.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
		return Placed{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dec, err := r.pipe.Decide(ctx, arrivalOf(spec, PlaceOptions{}), f.candidatesLocked(),
		func(ctx context.Context, n int, fn func(i int) error) error {
			return parallel.ForEach(ctx, f.cfg.Workers, n, fn)
		})
	if err != nil {
		return Placed{}, err
	}
	if dec.Node < 0 {
		return Placed{}, fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name)
	}
	p, err := f.commitLocked(ctx, spec, PlaceOptions{}, dec.Node, dec.Score)
	if err != nil {
		f.discardJournalLocked()
		return Placed{}, err
	}
	f.flushJournalLocked()
	return p, nil
}

// refViewNode is the reference detached view: one node's scoring inputs,
// captured for every node whether or not a predicate would admit it.
type refViewNode struct {
	n    *node
	ver  uint64
	cand sched.CandidateNode
	feat *core.FeatureVector
	asg  core.Assignment
	dkey string
	fix  int
}

func refCaptureViewLocked(ctx context.Context, f *Fleet, spec *workload.Spec) ([]refViewNode, error) {
	view := make([]refViewNode, len(f.nodes))
	for i, n := range f.nodes {
		vn := refViewNode{n: n, ver: n.version, fix: n.freqIx}
		vn.cand = sched.CandidateNode{
			Index: i, Name: n.cfg.Name, Up: !n.down, MaxPerCore: n.cfg.MaxPerCore,
			Labels: n.cfg.Labels, Taints: n.cfg.Taints,
		}
		if !n.down {
			feat, err := f.feats.get(ctx, n.kind, spec)
			if err != nil {
				return nil, err
			}
			asg := f.assignmentOf(n)
			vn.feat, vn.asg = feat, asg
			if f.scores != nil {
				vn.dkey = f.decisionKeyOf(n, feat)
			}
			vn.cand.PerCore = make([]int, len(asg))
			residents := 0
			for ci := range asg {
				vn.cand.PerCore[ci] = len(asg[ci])
				residents += len(asg[ci])
			}
			vn.cand.FreeSlots = -1
			if n.cfg.MaxPerCore > 0 {
				vn.cand.FreeSlots = n.cfg.MaxPerCore*n.cfg.Machine.NumCores - residents
			}
		}
		view[i] = vn
	}
	return view, nil
}

// refScoreViewDetached is the reference detached scorer: the hand copy of
// Pipeline.Decide, every feasible node on the parallel engine.
func refScoreViewDetached(ctx context.Context, f *Fleet, view []refViewNode, spec *workload.Spec) ([]nodeScore, error) {
	arr := arrivalOf(spec, PlaceOptions{})
	feasible := make([]int, 0, len(view))
	for i := range view {
		vn := &view[i]
		if !vn.cand.Up || !f.pipe.pipe.Admit(arr, &vn.cand) {
			continue
		}
		feasible = append(feasible, i)
		if f.cfg.MaxFeasible > 0 && len(feasible) == f.cfg.MaxFeasible {
			break
		}
	}
	scores := make([]nodeScore, len(view))
	err := parallel.ForEach(ctx, f.cfg.Workers, len(feasible), func(i int) error {
		vn := &view[feasible[i]]
		if f.cfg.Intercept != nil {
			if err := f.cfg.Intercept("fleet.score", vn.n.cfg.Name); err != nil {
				return err
			}
		}
		useMemo := f.scores != nil && f.cfg.Policy != CapAware
		if useMemo {
			if s, ok := f.scores.getDecision(vn.dkey); ok {
				scores[feasible[i]] = s
				return nil
			}
		}
		s, err := f.scoreNodeCold(ctx, nil, vn.n, vn.feat, vn.asg, vn.fix)
		if err != nil {
			return err
		}
		if useMemo {
			f.scores.putDecision(vn.dkey, s)
		}
		scores[feasible[i]] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// refSharded places through the reference detached path: every shard's
// view captured under its lock and scored outside it, shard by shard, the
// concatenated vector reduced globally, the winner committed against its
// version stamp. The sweep is single-goroutine, so a commit conflict is a
// bug, and a no-fit needs no second look under every lock.
type refSharded struct{ *Sharded }

func (r refSharded) Place(ctx context.Context, spec *workload.Spec) (Placed, error) {
	s := r.Sharded
	if err := s.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
		return Placed{}, err
	}
	var scores []nodeScore
	var vers []uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		view, err := refCaptureViewLocked(ctx, sh, spec)
		sh.mu.Unlock()
		if err != nil {
			return Placed{}, err
		}
		part, err := refScoreViewDetached(ctx, sh, view, spec)
		if err != nil {
			return Placed{}, err
		}
		scores = append(scores, part...)
		for i := range view {
			vers = append(vers, view[i].ver)
		}
	}
	pick := s.pipe.pipe.Selector().Pick(scores)
	if pick < 0 {
		return Placed{}, fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name)
	}
	sh, local := s.shardOf(pick)
	p, ok, err := sh.commitScored(ctx, spec, PlaceOptions{}, local, scores[pick], vers[pick])
	if err == nil && !ok {
		err = fmt.Errorf("reference commit on %s hit a version conflict", p.Node)
	}
	return p, err
}

// eventFaults injects faults at the three placement seams as a pure
// function of (seed, event, site, key): every consult of one key during
// one event gets the same answer, however many consults either scheduler
// makes, so the two fleets of a sweep cannot drift apart by consult count.
type eventFaults struct {
	seed uint64
	rate float64
	ev   atomic.Int64 // -1 disarms
}

func (e *eventFaults) Intercept(site, key string) error {
	ev := e.ev.Load()
	if ev < 0 {
		return nil
	}
	switch site {
	case "fleet.score", "fleet.solve", "fleet.profile":
	default:
		return nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s/%s", e.seed, ev, site, key)
	if float64(h.Sum64()>>11)/(1<<53) < e.rate {
		return fmt.Errorf("injected fault at %s %q (event %d)", site, key, ev)
	}
	return nil
}

// placer is what the sweep drives: both engines, new and reference.
type placer interface {
	Place(ctx context.Context, spec *workload.Spec) (Placed, error)
	Remove(ctx context.Context, node, name string) ([]Placed, error)
	FailNode(name string) ([]manager.Resident, error)
	RestoreNode(ctx context.Context, name string) ([]Placed, error)
	Inspect() []NodeInspection
	NodeNames() []string
	FreqStates() map[string]int
	ScoreCacheStats() ScoreCacheStats
}

// refConfig is one cell of the sweep's configuration grid.
type refConfig struct {
	policy  Policy
	memo    bool
	preds   bool
	workers int
	shards  int // 0 = unsharded
	nodes   int // 0 = four to eight, drawn per trace
}

func (c refConfig) String() string {
	return fmt.Sprintf("%s/memo=%t/preds=%t/w%d/shards%d/nodes%d", c.policy, c.memo, c.preds, c.workers, c.shards, c.nodes)
}

// refPair builds the fleet under test and its reference twin from one
// drawn node list (fresh machine instances each, so nothing is shared).
func refPair(t *testing.T, r *rand.Rand, c refConfig, faults [2]*eventFaults) (got, want placer, flush func(context.Context, *workload.Spec)) {
	t.Helper()
	pm := testPower(t)
	presets := []func() *machine.Machine{
		machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.FourCoreServer,
	}
	nNodes := 4 + r.Intn(5)
	if c.nodes > 0 {
		nNodes = c.nodes
	}
	kinds, caps := make([]int, nNodes), make([]int, nNodes)
	for i := range kinds {
		kinds[i], caps[i] = r.Intn(len(presets)), 1+r.Intn(2)
	}
	fseed := uint64(r.Int63())
	config := func(side int) Config {
		cfg := Config{
			Policy: c.policy, Seed: fseed, Workers: c.workers,
			Profile: oracle(nil, 0), Registry: metrics.NewRegistry(),
		}
		for i := range kinds {
			cfg.Nodes = append(cfg.Nodes, NodeConfig{Machine: presets[kinds[i]](), Power: pm, MaxPerCore: caps[i]})
		}
		if !c.memo {
			cfg.ScoreCacheCap = -1
		}
		if c.preds {
			cfg.ExtraPredicates = []sched.Predicate{sched.FreeSlot{}, sched.PerCoreCap{}}
			if c.shards == 0 {
				cfg.MaxFeasible = 3
			}
		}
		if faults[side] != nil {
			cfg.Intercept = faults[side].Intercept
		}
		return cfg
	}
	if c.shards == 0 {
		a, err := New(config(0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(config(1))
		if err != nil {
			t.Fatal(err)
		}
		return a, refFleet{b, refPipeline(t, b)}, func(ctx context.Context, spec *workload.Spec) {
			for _, f := range []*Fleet{a, b} {
				if err := f.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
					t.Fatal(err)
				}
				f.FlushScoreCache()
			}
		}
	}
	a, err := NewSharded(config(0), c.shards)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(config(1), c.shards)
	if err != nil {
		t.Fatal(err)
	}
	return a, refSharded{b}, func(ctx context.Context, spec *workload.Spec) {
		for _, s := range []*Sharded{a, b} {
			if err := s.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
				t.Fatal(err)
			}
			s.FlushScoreCache()
		}
	}
}

// runReferenceTrace drives one seeded churn trace through the fleet under
// test and its reference twin in lockstep: every placement must agree on
// the winner, the score and watts bit patterns and the error, and the two
// clusters must end in the same layout and rungs.
func runReferenceTrace(t *testing.T, c refConfig, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var faults [2]*eventFaults
	if seed%2 == 1 {
		for i := range faults {
			faults[i] = &eventFaults{seed: uint64(seed), rate: 0.04}
			faults[i].ev.Store(-1)
		}
	}
	got, want, resync := refPair(t, r, c, faults)
	arm := func(ev int64) {
		for _, f := range faults {
			if f != nil {
				f.ev.Store(ev)
			}
		}
	}
	ctx := context.Background()
	suite := workload.Suite()
	type ref struct{ node, name string }
	var residents []ref
	failed := false
	events := 25 + r.Intn(15)
	for ev := 0; ev < events; ev++ {
		switch op := r.Intn(10); {
		case op < 6:
			spec := suite[r.Intn(len(suite))]
			arm(int64(ev))
			gp, gerr := got.Place(ctx, spec)
			wp, werr := want.Place(ctx, spec)
			arm(-1)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s seed %d ev %d (%s): error %v, reference %v", c, seed, ev, spec.Name, gerr, werr)
			}
			if gerr != nil {
				if faults[0] != nil {
					// The schedulers may have memoized different subsets
					// before the failure; level both before going on.
					failed = true
					resync(ctx, spec)
				}
				continue
			}
			if gp.Node != wp.Node || gp.Name != wp.Name || gp.Core != wp.Core ||
				math.Float64bits(gp.Score) != math.Float64bits(wp.Score) ||
				math.Float64bits(gp.Watts) != math.Float64bits(wp.Watts) {
				t.Fatalf("%s seed %d ev %d (%s): placed %+v, reference %+v", c, seed, ev, spec.Name, gp, wp)
			}
			residents = append(residents, ref{gp.Node, gp.Name})
		case op < 9:
			if len(residents) == 0 {
				continue
			}
			i := r.Intn(len(residents))
			d := residents[i]
			residents = append(residents[:i], residents[i+1:]...)
			for _, p := range []placer{got, want} {
				if _, err := p.Remove(ctx, d.node, d.name); err != nil {
					t.Fatalf("%s seed %d ev %d: remove %s/%s: %v", c, seed, ev, d.node, d.name, err)
				}
			}
		default:
			name := got.NodeNames()[r.Intn(len(got.NodeNames()))]
			for _, p := range []placer{got, want} {
				if _, err := p.FailNode(name); err != nil {
					t.Fatalf("%s seed %d ev %d: fail %s: %v", c, seed, ev, name, err)
				}
				if _, err := p.RestoreNode(ctx, name); err != nil {
					t.Fatalf("%s seed %d ev %d: restore %s: %v", c, seed, ev, name, err)
				}
			}
			kept := residents[:0]
			for _, d := range residents {
				if d.node != name {
					kept = append(kept, d)
				}
			}
			residents = kept
		}
	}
	if !reflect.DeepEqual(got.FreqStates(), want.FreqStates()) {
		t.Fatalf("%s seed %d: rungs %v, reference %v", c, seed, got.FreqStates(), want.FreqStates())
	}
	gi, wi := got.Inspect(), want.Inspect()
	for i := range gi {
		if gi[i].Name != wi[i].Name || len(gi[i].Residents) != len(wi[i].Residents) {
			t.Fatalf("%s seed %d: node %d layout diverged", c, seed, i)
		}
		for j, gr := range gi[i].Residents {
			if wr := wi[i].Residents[j]; gr.Name != wr.Name || gr.Core != wr.Core || gr.Spec.Name != wr.Spec.Name {
				t.Fatalf("%s seed %d: node %s resident %d: %s/core%d, reference %s/core%d",
					c, seed, gi[i].Name, j, gr.Name, gr.Core, wr.Name, wr.Core)
			}
		}
	}
	if !failed {
		// Without a failed event both schedulers probe the decision memo
		// once per scored candidate: the counters must agree exactly.
		gs, ws := got.ScoreCacheStats(), want.ScoreCacheStats()
		if gs.DecisionHits != ws.DecisionHits || gs.DecisionMisses != ws.DecisionMisses {
			t.Fatalf("%s seed %d: decision memo %d hits / %d misses, reference %d / %d",
				c, seed, gs.DecisionHits, gs.DecisionMisses, ws.DecisionHits, ws.DecisionMisses)
		}
	}
}

// TestScoreFeasibleMatchesReference sweeps the two-phase routine against
// the reference over the configuration grid — 8 policies × decision memo
// on / ScoreCacheCap −1 × capacity predicates (+ a MaxFeasible cut where
// it may shard) on/off × Workers 1/4 × unsharded / 4 shards — with 50
// seeded churn traces per cell, every odd seed injecting faults at the
// score, solve and profile seams.
func TestScoreFeasibleMatchesReference(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 4
	}
	pols := append(Policies(), ColocateSharers, SpreadSharers, LeastEnergy, CapAware)
	for _, policy := range pols {
		for _, shards := range []int{0, 4} {
			if policy == Spread && shards > 1 {
				continue // serial policy, rejected by NewSharded
			}
			policy, shards := policy, shards
			t.Run(fmt.Sprintf("%s/shards%d", policy, shards), func(t *testing.T) {
				t.Parallel()
				for _, memo := range []bool{true, false} {
					for _, preds := range []bool{false, true} {
						for _, workers := range []int{1, 4} {
							c := refConfig{policy, memo, preds, workers, shards, 0}
							for seed := 0; seed < seeds; seed++ {
								runReferenceTrace(t, c, int64(seed))
							}
						}
					}
				}
			})
		}
	}
}

// TestScoreFeasibleFansOutLargeMissSets takes the sweep where phase 2
// really runs on several workers: the grid's fleets stay below two
// scoreGrains of misses and score inline at any Workers, so here every
// arrival scores three grains of nodes — all misses with the memo off,
// the first arrivals' worth with it on — on three workers, against the
// reference's fan-out, odd seeds injecting faults under the workers.
func TestScoreFeasibleFansOutLargeMissSets(t *testing.T) {
	for _, policy := range []Policy{LeastDegradation, LeastEnergy, CapAware} {
		for _, memo := range []bool{false, true} {
			for seed := int64(0); seed < 6; seed++ {
				runReferenceTrace(t, refConfig{policy: policy, memo: memo, workers: 4, nodes: 3 * scoreGrain}, seed)
			}
		}
	}
}

// TestScoreFeasibleErrorOrder pins the one place the two-phase routine
// consults the score seam more often than the serial loop did: with
// Workers 1, a cold solve failing at candidate 0 used to stop the loop
// before candidate 1's seam; phase 1 now walks every candidate (up to the
// first seam failure) before phase 2 solves. The error is still the
// lowest-index one.
func TestScoreFeasibleErrorOrder(t *testing.T) {
	ctx := context.Background()
	spec := workload.ByName("mcf")
	errSolve, errSeam := errors.New("injected solve fault"), errors.New("injected seam fault")
	// place runs one Place on a fresh four-node fleet whose first solve
	// fails, and whose score seam fails on seamNode (if any); it returns
	// the error and how often the score seam was consulted.
	place := func(seamNode string) (error, int) {
		seams, solves := 0, 0
		f := testFleet(t, LeastDegradation, func(c *Config) {
			c.Workers = 1
			c.Intercept = func(site, key string) error {
				switch {
				case site == "fleet.score":
					seams++
					if key == seamNode {
						return errSeam
					}
				case site == "fleet.solve":
					if solves++; solves == 1 {
						return errSolve
					}
				}
				return nil
			}
		})
		_, err := f.Place(ctx, spec)
		if n := checkCapacity(t, f); n != 0 {
			t.Fatalf("%d residents after a failed placement", n)
		}
		return err, seams
	}

	// The failing solve sits under candidate 0: every candidate's seam is
	// consulted first (the serial loop stopped after one), and the solve
	// fault is what surfaces.
	if err, seams := place(""); !errors.Is(err, errSolve) || seams != 4 {
		t.Fatalf("error %v after %d seam consults, want the solve fault after 4", err, seams)
	}
	// Below a seam failure at candidate 2, phase 1 stops at the seam,
	// phase 2 solves the misses below it, and the lower-index fault wins.
	if err, seams := place("m2"); !errors.Is(err, errSolve) || seams != 3 {
		t.Fatalf("error %v after %d seam consults, want the solve fault after 3", err, seams)
	}
	// A seam failure at candidate 0 stops everything: no solve runs.
	if err, seams := place("m0"); !errors.Is(err, errSeam) || seams != 1 {
		t.Fatalf("error %v after %d seam consults, want the seam fault after 1", err, seams)
	}
}

// TestAssembledPipelineDecidesLikePlacement holds the bundle's assembled
// pipeline to its word: Pipeline.Decide over the model stage — one
// candidate at a time through scoreFeasible — picks the slot the placement
// then commits, for every model policy.
func TestAssembledPipelineDecidesLikePlacement(t *testing.T) {
	ctx := context.Background()
	for _, policy := range append(Policies(), LeastEnergy, CapAware) {
		if policy == Spread {
			continue
		}
		f := testFleet(t, policy, nil)
		for i, spec := range sixteenSpecs()[:12] {
			if err := f.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
				t.Fatal(err)
			}
			f.mu.Lock()
			dec, err := f.pipe.pipe.Decide(ctx, arrivalOf(spec, PlaceOptions{}), f.candidatesLocked(), nil)
			if err != nil {
				f.mu.Unlock()
				t.Fatal(err)
			}
			p, err := f.placeOneLocked(ctx, spec, PlaceOptions{})
			f.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if p.Node != f.nodes[dec.Node].cfg.Name || p.Core != dec.Score.Core ||
				math.Float64bits(p.Score) != math.Float64bits(dec.Score.Value) {
				t.Fatalf("%s arrival %d: pipeline decided %s/core%d (%v), placement committed %+v",
					policy, i, f.nodes[dec.Node].cfg.Name, dec.Score.Core, dec.Score.Value, p)
			}
		}
	}
}
