// Detached scoring: the queue pump's equilibrium solves run outside the
// fleet lock against a version-stamped view, so Submit/Cancel/State are
// never blocked behind a scoring pass. Correctness rests on three facts:
// captured assignment snapshots are immutable (assignmentOf replaces, and
// every scoring path copies on write), the score/feature caches and the
// solver state are concurrency-safe and content-addressed, and a commit
// only lands when the WINNING node's version still equals the view's
// per-node stamp — a mutation on the chosen node forces a re-score
// (which then decides exactly what a fresh in-lock pass would), while
// mutations on other nodes never invalidate, so disjoint placements
// commit concurrently. A no-fit outcome is the one fleet-wide claim and
// revalidates against the fleet version instead.

package fleet

import (
	"context"

	"mpmc/internal/core"
	"mpmc/internal/parallel"
	"mpmc/internal/sched"
	"mpmc/internal/workload"
)

// scoreIn is what scoring one candidate reads, taken under the fleet lock:
// nothing in it is ever mutated in place, so a captured scoreIn stays
// valid after the lock is released (revalidation decides whether its
// score may still commit).
type scoreIn struct {
	n    *node
	feat *core.FeatureVector
	asg  core.Assignment
	dkey string // decision-memo key ("" when the policy never memoizes)
	fix  int    // the node's DVFS rung
}

// placeView is a consistent, version-stamped snapshot of one arrival's
// feasible candidates and their scoring inputs.
type placeView struct {
	feasible []int     // admitted node indices: index order, MaxFeasible cut applied
	ins      []scoreIn // ins[k] belongs to node feasible[k]
	vers     []uint64  // every node's version at capture, by node index
	ver      uint64    // fleet version, revalidating no-fit outcomes
}

// useMemo reports whether placements consult the decision memo. CapAware
// never does: its decisions depend on the live cap headroom, which the
// decision key cannot encode, so the memo would replay a decision made
// under different budget pressure.
func (f *Fleet) useMemo() bool { return f.scores != nil && f.cfg.Policy != CapAware }

// scoreInLocked reads one node's scoring inputs for spec. Callers must
// hold the fleet lock. The feature resolve keeps its full profiling and
// error semantics: entries submitted after the caller's resolve sweep (or
// evicted since) profile here.
func (f *Fleet) scoreInLocked(ctx context.Context, n *node, spec *workload.Spec) (scoreIn, error) {
	feat, err := f.feats.get(ctx, n.kind, spec)
	if err != nil {
		return scoreIn{}, err
	}
	in := scoreIn{n: n, feat: feat, asg: f.assignmentOf(n), fix: n.freqIx}
	if f.useMemo() {
		in.dkey = f.decisionKeyOf(n, feat)
	}
	return in, nil
}

// feasibleLocked appends to dst the indices of the nodes the pipeline's
// predicates admit for arr — canonical predicate order, node order, cut
// after MaxFeasible survivors: exactly Pipeline.Decide's filter. Callers
// must hold the fleet lock.
func (f *Fleet) feasibleLocked(arr sched.Arrival, dst []int) []int {
	for i, c := range f.candidatesLocked() {
		if !f.pipe.pipe.Admit(arr, c) {
			continue
		}
		dst = append(dst, i)
		if f.cfg.MaxFeasible > 0 && len(dst) == f.cfg.MaxFeasible {
			break
		}
	}
	return dst
}

func arrivalOf(spec *workload.Spec, opts PlaceOptions) sched.Arrival {
	return sched.Arrival{Key: spec.Name, Priority: opts.Priority, Tolerations: opts.Tolerations, Payload: spec}
}

// captureViewLocked snapshots the fleet for one arrival. Callers must
// hold the fleet lock; the returned view is safe to score after release.
func (f *Fleet) captureViewLocked(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (*placeView, error) {
	v := &placeView{vers: make([]uint64, len(f.nodes)), ver: f.version}
	for i, n := range f.nodes {
		v.vers[i] = n.version
	}
	v.feasible = f.feasibleLocked(arrivalOf(spec, opts), nil)
	v.ins = make([]scoreIn, len(v.feasible))
	for k, ni := range v.feasible {
		var err error
		if v.ins[k], err = f.scoreInLocked(ctx, f.nodes[ni], spec); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// scoreGrain is the fewest cold scores worth a worker of their own. A cold
// score is ~8 µs of solves on a serving fleet; a worker costs a goroutine,
// a futex wake and a park (~35 µs of CPU, more across the CPUs of a VM),
// and on a lightly loaded box those wakes decide, run by run, whether the
// kernel keeps the process on one CPU or spreads it over all of them.
const scoreGrain = 16

// scoreFeasible is the one scoring routine of every model-policy
// placement: it scores the feasible candidates (node indices in index
// order) and returns their scores in the same order. With captured inputs
// it runs detached from the fleet lock; with captured == nil the caller
// holds the lock and each candidate's inputs are read live, after its
// seam consult.
//
// Phase 1 walks the candidates on the caller's goroutine: context poll,
// the "fleet.score" injection seam (ahead of any memo probe, so injected
// errors fire per scored node warm or cold), the inputs, one counted
// decision-memo probe. Phase 2 hands only the misses to the parallel
// engine for scoreNodeCold, one worker per scoreGrain misses — a warm
// placement, whose survivors all hit, starts no goroutine, and fewer than
// two grains of misses run inline. Results land in index-addressed slots
// and callers reduce serially, so the decision is identical at any worker
// count. Errors keep the serial loop's order: phase 1 stops at the first
// failing candidate, phase 2 still solves the misses below it, and the
// lowest-index error wins.
func (f *Fleet) scoreFeasible(ctx context.Context, spec *workload.Spec, feasible []int, captured []scoreIn) ([]nodeScore, error) {
	type miss struct {
		k  int
		in scoreIn
	}
	useMemo := f.useMemo()
	scores := make([]nodeScore, len(feasible))
	var misses []miss
	var stop error
	for k, ni := range feasible {
		if stop = ctx.Err(); stop != nil {
			break
		}
		if f.cfg.Intercept != nil {
			if stop = f.cfg.Intercept("fleet.score", f.nodes[ni].cfg.Name); stop != nil {
				break
			}
		}
		var in scoreIn
		if captured != nil {
			in = captured[k]
		} else if in, stop = f.scoreInLocked(ctx, f.nodes[ni], spec); stop != nil {
			break
		}
		if useMemo {
			if s, ok := f.scores.getDecision(in.dkey); ok {
				scores[k] = s
				continue
			}
		}
		if misses == nil {
			misses = make([]miss, 0, len(feasible)-k)
		}
		misses = append(misses, miss{k, in})
	}
	if len(misses) == 0 {
		return scores, stop
	}
	workers := max(1, min(parallel.Workers(f.cfg.Workers), len(misses)/scoreGrain))
	err := parallel.ForEach(ctx, workers, len(misses), func(i int) error {
		m := &misses[i]
		s, err := f.scoreNodeCold(ctx, m.in.n, m.in.feat, m.in.asg, m.in.fix)
		if err != nil {
			return err
		}
		if useMemo {
			f.scores.putDecision(m.in.dkey, s)
		}
		scores[m.k] = s
		return nil
	})
	if err == nil {
		err = stop
	}
	return scores, err
}

// scoreViewDetached scores a captured view into a node-indexed vector,
// infeasible nodes left !OK. The caller reduces it with the pipeline's
// selector — selectors skip !OK entries, so the winner is bit-identical
// to the in-lock decision against the same state.
func (f *Fleet) scoreViewDetached(ctx context.Context, v *placeView, spec *workload.Spec) ([]nodeScore, error) {
	scored, err := f.scoreFeasible(ctx, spec, v.feasible, v.ins)
	if err != nil {
		return nil, err
	}
	scores := make([]nodeScore, len(v.vers))
	for k, ni := range v.feasible {
		scores[ni] = scored[k]
	}
	return scores, nil
}

// scoreArrivalDetached captures a view under the lock and scores it
// detached — the sharded fleet's per-shard scoring primitive. The
// returned per-node version stamps revalidate the eventual commit (pass
// the winning node's stamp to commitScored).
func (f *Fleet) scoreArrivalDetached(ctx context.Context, spec *workload.Spec, opts PlaceOptions) ([]nodeScore, []uint64, error) {
	f.lock()
	view, err := f.captureViewLocked(ctx, spec, opts)
	f.unlock()
	if err != nil {
		return nil, nil, err
	}
	scores, err := f.scoreViewDetached(ctx, view, spec)
	if err != nil {
		return nil, nil, err
	}
	return scores, view.vers, nil
}

// rescoreNodeDetached refreshes a single node's entry in a detached
// score vector after a commit conflict: only the conflicted node's
// inputs are recaptured (one node, not the fleet) and re-scored, with a
// fresh version stamp for the retried commit. The other entries stay as
// captured — safe, because an unchanged stamp certifies an unchanged
// assignment, and commitScored revalidates whichever node eventually
// wins. Callers with a MaxFeasible cut must not use this (the cut is a
// property of the whole feasible set); NewSharded rejects that
// combination for shards > 1 and the sharded fast path re-scores fully
// when a cut is configured.
func (f *Fleet) rescoreNodeDetached(ctx context.Context, i int, spec *workload.Spec, opts PlaceOptions) (nodeScore, uint64, error) {
	n := f.nodes[i]
	f.lock()
	ver := n.version
	var in scoreIn
	var err error
	admitted := f.pipe.pipe.Admit(arrivalOf(spec, opts), f.candidateLocked(i))
	if admitted {
		in, err = f.scoreInLocked(ctx, n, spec)
	}
	f.unlock()
	if err != nil || !admitted {
		return nodeScore{}, ver, err
	}
	scored, err := f.scoreFeasible(ctx, spec, []int{i}, []scoreIn{in})
	return scored[0], ver, err
}

// commitScored commits a detached decision: under the lock, the winning
// node's version stamp is revalidated (a mismatch returns ok=false and
// commits nothing — the caller re-scores) and the winning slot commits
// through the node manager exactly like an in-lock placement. Counting the
// admission is the caller's: a direct placement and a queue admission
// move different counters.
func (f *Fleet) commitScored(ctx context.Context, spec *workload.Spec, opts PlaceOptions, best int, s nodeScore, ver uint64) (Placed, bool, error) {
	f.lock()
	defer f.unlock()
	if f.nodes[best].version != ver {
		return Placed{}, false, nil
	}
	p, err := f.commitLocked(ctx, spec, opts, best, s)
	if err != nil {
		f.discardJournalLocked()
		return Placed{}, false, err
	}
	f.flushJournalLocked()
	return p, true, nil
}
