package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/parallel"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// This file is the pipeline-refactor equivalence sweep: the pre-refactor
// placement logic — the policy switch that used to live in
// commitBestLocked and the rotation loop that was placeSpreadLocked —
// is embedded here verbatim (modulo the nodeScore field renames) and run
// in lockstep against the sched-pipeline scheduler over randomized
// fleets and traces. Both schedulers share one Fleet's caches and state:
// the legacy placer decides, the decision is compared against the
// pipeline's, and only the pipeline's commit mutates the fleet, so any
// divergence is caught at the exact event that produced it.

// legacyDecide reproduces the pre-refactor scoring fan-out and reduction
// for the three model policies. Caller holds f.mu.
func legacyDecide(ctx context.Context, f *Fleet, spec *workload.Spec) (best int, s nodeScore, err error) {
	scores, err := parallel.Map(ctx, f.cfg.Workers, len(f.nodes), func(i int) (nodeScore, error) {
		if f.nodes[i].down {
			return nodeScore{}, nil
		}
		return f.scoreNode(ctx, f.nodes[i], spec)
	})
	if err != nil {
		return -1, nodeScore{}, err
	}
	best = -1
	switch f.cfg.Policy {
	// The sharer-aware policies reuse the model prioritizer with
	// MinValue; at T=1 (no group shaping) they must decide exactly like
	// LeastDegradation did pre-refactor.
	case LeastDegradation, LeastWatts, ColocateSharers, SpreadSharers:
		for i, sc := range scores {
			if sc.OK && (best < 0 || sc.Value < scores[best].Value) {
				best = i
			}
		}
	case BinPack:
		for i, sc := range scores {
			if sc.OK && sc.Rel <= f.cfg.BinPackCeiling {
				best = i
				break
			}
		}
		if best < 0 {
			for i, sc := range scores {
				if sc.OK && (best < 0 || sc.Rel < scores[best].Rel) {
					best = i
				}
			}
		}
	case LeastEnergy, CapAware:
		// The frequency-aware policies reduce exactly like the model
		// policies: strict less-than over node order on the per-node best
		// (core, state) value.
		for i, sc := range scores {
			if sc.OK && (best < 0 || sc.Value < scores[best].Value) {
				best = i
			}
		}
	default:
		return -1, nodeScore{}, errUnknownPolicy(f.cfg.Policy)
	}
	if best < 0 {
		return -1, nodeScore{}, nil
	}
	return best, scores[best], nil
}

// decideColdAs scores every node from scratch under an arbitrary policy
// (bypassing the decision memo, so nothing is poisoned for the fleet's
// real policy) and reduces with the model policies' strict less-than.
// Caller holds f.mu.
func decideColdAs(ctx context.Context, f *Fleet, spec *workload.Spec, policy Policy) (best int, s nodeScore, err error) {
	old := f.cfg.Policy
	f.cfg.Policy = policy
	defer func() { f.cfg.Policy = old }()
	best = -1
	for i, n := range f.nodes {
		if n.down {
			continue
		}
		feat, err := f.feats.get(ctx, n.kind, spec)
		if err != nil {
			return -1, nodeScore{}, err
		}
		sc, err := f.scoreNodeCold(ctx, n, feat, f.assignmentOf(n), n.freqIx)
		if err != nil {
			return -1, nodeScore{}, err
		}
		if sc.OK && (best < 0 || sc.Value < s.Value) {
			best, s = i, sc
		}
	}
	return best, s, nil
}

// legacySpreadDecide reproduces the pre-refactor placeSpreadLocked scan:
// machines in rotation from the cursor, least-loaded admissible core
// (ties to the lowest index) within the first admissible machine.
func legacySpreadDecide(f *Fleet) (best, bestCore int) {
	nn := len(f.nodes)
	for tries := 0; tries < nn; tries++ {
		i := (f.rrNode + tries) % nn
		n := f.nodes[i]
		if n.down {
			continue
		}
		running := n.mgr.Running()
		core, load := -1, 0
		for c := 0; c < n.cfg.Machine.NumCores; c++ {
			if n.cfg.MaxPerCore != 0 && len(running[c]) >= n.cfg.MaxPerCore {
				continue
			}
			if core < 0 || len(running[c]) < load {
				core, load = c, len(running[c])
			}
		}
		if core < 0 {
			continue
		}
		return i, core
	}
	return -1, -1
}

func equivFleet(t *testing.T, r *rand.Rand, policy Policy, cacheCap int) *Fleet {
	t.Helper()
	pm := testPower(t)
	kinds := []func() *machine.Machine{
		machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.FourCoreServer,
	}
	nNodes := 2 + r.Intn(3)
	nodes := make([]NodeConfig, nNodes)
	for i := range nodes {
		nodes[i] = NodeConfig{
			Machine:    kinds[r.Intn(len(kinds))](),
			Power:      pm,
			MaxPerCore: 1 + r.Intn(2),
		}
	}
	f, err := New(Config{
		Nodes:         nodes,
		Policy:        policy,
		QueueCap:      4,
		Seed:          uint64(r.Int63()),
		Workers:       1 + r.Intn(3),
		ScoreCacheCap: cacheCap,
		Profile:       oracle(nil, 0),
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

// runEquivSweep drives one randomized trace through one fleet, deciding
// every arrival with both schedulers and failing on the first divergence.
func runEquivSweep(t *testing.T, seed int64, cacheCap int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	// The rotation covers the four legacy policies, both sharer-aware
	// ones (at T=1 the latter must be indistinguishable from the legacy
	// model path, and half their arrivals go through PlaceGroup to pin
	// that a single-thread group IS a legacy Place), and both
	// frequency-aware ones — on these uncapped, base-state, out-of-order
	// fleets cap-aware must decide bit-identically to least-degradation
	// and neither may ever emit a below-base frequency target.
	pols := append(Policies(), ColocateSharers, SpreadSharers, LeastEnergy, CapAware)
	policy := pols[int(seed)%len(pols)]
	f := equivFleet(t, r, policy, cacheCap)
	ctx := context.Background()
	suite := workload.Suite()
	type placedRef struct{ node, name string }
	var residents []placedRef

	events := 25 + r.Intn(15)
	for ev := 0; ev < events; ev++ {
		switch op := r.Intn(10); {
		case op < 6: // arrival
			spec := suite[r.Intn(len(suite))]
			if err := f.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
				t.Fatalf("seed %d ev %d: resolve: %v", seed, ev, err)
			}
			f.mu.Lock()
			var wantNode, wantCore int
			var wantScore float64
			if policy == Spread {
				wantNode, wantCore = legacySpreadDecide(f)
			} else {
				b, s, err := legacyDecide(ctx, f, spec)
				if err != nil {
					f.mu.Unlock()
					t.Fatalf("seed %d ev %d: legacy decide: %v", seed, ev, err)
				}
				wantNode, wantCore, wantScore = b, s.Core, s.Value
				if policy == CapAware {
					// Uncapped on all-out-of-order machines at base state,
					// cap-aware IS least-degradation: same node, core, and
					// bit-identical value, with the winner pinned to base.
					lb, ls, err := decideColdAs(ctx, f, spec, LeastDegradation)
					if err != nil {
						f.mu.Unlock()
						t.Fatalf("seed %d ev %d: LD decide: %v", seed, ev, err)
					}
					if lb != b || (b >= 0 && (ls.Core != s.Core || math.Float64bits(ls.Value) != math.Float64bits(s.Value))) {
						f.mu.Unlock()
						t.Fatalf("seed %d ev %d: uncapped cap-aware chose node %d core %d value %v; least-degradation node %d core %d value %v",
							seed, ev, b, s.Core, s.Value, lb, ls.Core, ls.Value)
					}
				}
				// Uncapped cap-aware never leaves base (lower rungs only
				// inflate the SPI it minimizes); least-energy MAY volunteer
				// a down-clock — that freedom is its whole point — so only
				// cap-aware pins the rung.
				if policy == CapAware && b >= 0 {
					if base := f.nodes[b].cfg.Machine.Freq.BaseIx(); s.Freq != base+1 {
						f.mu.Unlock()
						t.Fatalf("seed %d ev %d: %s emitted frequency target %d (base rung %d) with no cap",
							seed, ev, policy, s.Freq, base)
					}
				}
			}
			var got Placed
			var err error
			if policy.GroupAware() && ev%2 == 1 {
				// Route through the group path as a T=1 group: shapeGroup
				// returns the base spec untouched, so the decision must be
				// bit-identical to a legacy Place of the same spec.
				f.mu.Unlock()
				var ps []Placed
				ps, err = f.PlaceGroup(ctx, threads.GroupSpec{Base: spec, Threads: 1})
				if err == nil {
					got = ps[0]
				}
			} else {
				got, err = f.placeOneLocked(ctx, spec, PlaceOptions{})
				f.mu.Unlock()
			}
			if wantNode < 0 {
				if err == nil {
					t.Fatalf("seed %d ev %d: pipeline placed %s where legacy found the fleet full", seed, ev, spec.Name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d ev %d: pipeline rejected %s where legacy chose node %d: %v",
					seed, ev, spec.Name, wantNode, err)
			}
			if got.Node != f.nodes[wantNode].cfg.Name || got.Core != wantCore {
				t.Fatalf("seed %d ev %d (%s, %s): pipeline chose %s/core%d, legacy %s/core%d",
					seed, ev, policy, spec.Name, got.Node, got.Core, f.nodes[wantNode].cfg.Name, wantCore)
			}
			if policy != Spread && (got.Score != wantScore && !(math.IsNaN(got.Score) && math.IsNaN(wantScore))) {
				t.Fatalf("seed %d ev %d: score %v != legacy %v (must be bit-identical)", seed, ev, got.Score, wantScore)
			}
			residents = append(residents, placedRef{got.Node, got.Name})
		case op < 9: // departure
			if len(residents) == 0 {
				continue
			}
			i := r.Intn(len(residents))
			ref := residents[i]
			residents = append(residents[:i], residents[i+1:]...)
			if _, err := f.Remove(ctx, ref.node, ref.name); err != nil {
				t.Fatalf("seed %d ev %d: remove %s/%s: %v", seed, ev, ref.node, ref.name, err)
			}
		default: // fail + restore one machine (evicts its residents)
			name := f.NodeNames()[r.Intn(len(f.nodes))]
			if _, err := f.FailNode(name); err != nil {
				continue
			}
			kept := residents[:0]
			for _, ref := range residents {
				if ref.node != name {
					kept = append(kept, ref)
				}
			}
			residents = kept
			if _, err := f.RestoreNode(ctx, name); err != nil {
				t.Fatalf("seed %d ev %d: restore %s: %v", seed, ev, name, err)
			}
		}
	}
}

// TestLegacyPolicyEquivalence is the 150-seed sweep: every legacy policy
// bundle must decide identically to the pre-refactor implementation,
// cold (caching disabled) and cached, across randomized heterogeneous
// fleets, traces, and machine failures.
func TestLegacyPolicyEquivalence(t *testing.T) {
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
			runEquivSweep(t, int64(seed), cacheCap)
		})
	}
}
