// Detached scoring and the optimistic path: the one loop that every queue
// pump of a model-scoring policy and every Sharded.PlaceWith runs. A fleet
// scores and commits on its shard list — the shards of a whole-fleet
// value, or a standalone fleet as its own single shard — so the unsharded
// and sharded engines share this code, not a copy of it.
//
// The equilibrium solves run outside every lock against a version-stamped
// view, so Submit/Cancel/State are never blocked behind a scoring pass.
// Correctness rests on three facts: captured assignment snapshots are
// immutable (assignmentOf replaces, and every scoring path copies on
// write), the score/feature caches and the solver state are
// concurrency-safe and content-addressed, and a commit only lands when the
// WINNING node's version still equals the view's per-node stamp — a
// mutation on the chosen node forces a re-score (which then decides
// exactly what a fresh in-lock pass would), while mutations on other nodes
// never invalidate, so disjoint placements commit concurrently. Anything a
// detached pass cannot settle — no feasible slot, a watt refusal at
// commit, a run of conflicts — is decided again under the whole lock,
// where a no-fit is confirmed against a consistent cluster and acted on
// (preempt, reject or block). The Spread policy never takes this path.

package fleet

import (
	"context"
	"errors"
	"runtime"

	"mpmc/internal/cache"
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
	// suffix is the assignment's decision-key bytes ("" when the policy
	// never memoizes); with the node, the arrival and the rung it makes
	// the decision-memo key, built at the probe.
	suffix string
	fix    int // the node's DVFS rung
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
		in.suffix = f.suffixOf(n)
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
// decision-memo probe with the key built on the stack (a hit allocates
// nothing; a miss keeps its key for the insert). Phase 2 hands only the
// misses to the parallel engine for scoreNodeCold, one worker per
// scoreGrain misses — a warm placement, whose survivors all hit, starts
// no goroutine, and fewer than two grains of misses run inline. Results land in index-addressed slots
// and callers reduce serially, so the decision is identical at any worker
// count. Errors keep the serial loop's order: phase 1 stops at the first
// failing candidate, phase 2 still solves the misses below it, and the
// lowest-index error wins.
func (f *Fleet) scoreFeasible(ctx context.Context, spec *workload.Spec, feasible []int, captured []scoreIn) ([]nodeScore, error) {
	type miss struct {
		k   int
		in  scoreIn
		key string
	}
	useMemo := f.useMemo()
	var kb [256]byte
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
		var key string
		if useMemo {
			b := appendDecisionKey(kb[:0], in.n, in.feat, in.suffix, in.fix)
			if s, ok := f.scores.getDecision(b); ok {
				scores[k] = s
				continue
			}
			key = string(b)
		}
		if misses == nil {
			misses = make([]miss, 0, len(feasible)-k)
		}
		misses = append(misses, miss{k, in, key})
	}
	if len(misses) == 0 {
		return scores, stop
	}
	// In-lock scoring solves through the lock holder's table, a detached
	// call through one of its own; phase-2 workers share it.
	tab := f.ctab
	if captured != nil && tab != nil {
		tab = comboTables.Get()
		defer putComboTable(tab)
	}
	workers := max(1, min(parallel.Workers(f.cfg.Workers), len(misses)/scoreGrain))
	err := parallel.ForEach(ctx, workers, len(misses), func(i int) error {
		m := &misses[i]
		s, err := f.scoreNodeCold(ctx, tab, m.in.n, m.in.feat, m.in.asg, m.in.fix)
		if err != nil {
			return err
		}
		if useMemo {
			f.scores.putDecision(m.key, s)
		}
		scores[m.k] = s
		return nil
	})
	if err == nil {
		err = stop
	}
	return scores, err
}

// comboTables holds the combination tables of detached scoring calls.
var comboTables = cache.FreeList[core.ComboTable]{New: core.NewComboTable}

// putComboTable empties a detached call's table and releases it: nothing
// one operation solved reaches another.
func putComboTable(t *core.ComboTable) {
	t.Reset()
	comboTables.Put(t)
}

// scoreArrivalDetached scores the arrival against f's nodes: the feasible
// set and each candidate's inputs are captured under the lock, and the
// solves run after it is released. It returns a node-indexed vector,
// infeasible nodes left !OK (selectors skip them, so the winner is
// bit-identical to the in-lock decision against the same state), and every
// node's version stamp at capture (pass the winner's to commitScored).
func (f *Fleet) scoreArrivalDetached(ctx context.Context, spec *workload.Spec, opts PlaceOptions) ([]nodeScore, []uint64, error) {
	f.lock()
	vers := make([]uint64, len(f.nodes))
	for i, n := range f.nodes {
		vers[i] = n.version
	}
	feasible := f.feasibleLocked(arrivalOf(spec, opts), nil)
	ins := make([]scoreIn, len(feasible))
	var err error
	for k, ni := range feasible {
		if ins[k], err = f.scoreInLocked(ctx, f.nodes[ni], spec); err != nil {
			break
		}
	}
	f.unlock()
	if err != nil {
		return nil, nil, err
	}
	scored, err := f.scoreFeasible(ctx, spec, feasible, ins)
	if err != nil {
		return nil, nil, err
	}
	scores := make([]nodeScore, len(f.nodes))
	for k, ni := range feasible {
		scores[ni] = scored[k]
	}
	return scores, vers, nil
}

// rescoreNodeDetached refreshes a single node's entry in a detached
// score vector after a commit conflict: only the conflicted node's
// inputs are recaptured (one node, not the fleet) and re-scored, with a
// fresh version stamp for the retried commit. The other entries stay as
// captured — safe, because an unchanged stamp certifies an unchanged
// assignment, and commitScored revalidates whichever node eventually
// wins. Callers with a MaxFeasible cut must not use this (the cut is a
// property of the whole feasible set); commitDetached hands a conflict
// under a cut to the in-lock path instead.
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

// detached reports whether f's queue pumps and optimistic placements take
// the detached path — the one place that choice is made. Spread never
// does: its rotation cursor is read by the decision and advanced by the
// commit, so a view captured without it is stale on arrival.
func (f *Fleet) detached() bool { return f.cfg.Policy != Spread }

// shardOf locates the shard and shard-local node index of a global pick.
func (f *Fleet) shardOf(global int) (*Fleet, int) {
	for _, sh := range f.shards[:len(f.shards)-1] {
		if global < len(sh.nodes) {
			return sh, global
		}
		global -= len(sh.nodes)
	}
	return f.shards[len(f.shards)-1], global
}

// scoreAll scores the arrival on every shard (each against its own
// version-stamped view) and concatenates the vectors in shard order: the
// concatenation is exactly the unsharded fleet's node-indexed score vector
// for the same state, and vers[i] is node i's stamp at capture.
func (f *Fleet) scoreAll(ctx context.Context, spec *workload.Spec, opts PlaceOptions) ([]nodeScore, []uint64, error) {
	if len(f.shards) == 1 {
		return f.shards[0].scoreArrivalDetached(ctx, spec, opts)
	}
	type res struct {
		scores []nodeScore
		vers   []uint64
	}
	results := make([]res, len(f.shards))
	// One worker per shard, capped at GOMAXPROCS: results land in
	// per-shard slots, so the worker count never changes a decision, and
	// on a small box the serial path skips the goroutine fan-out.
	w := min(len(f.shards), runtime.GOMAXPROCS(0))
	err := parallel.ForEach(ctx, w, len(f.shards), func(i int) error {
		scores, vers, serr := f.shards[i].scoreArrivalDetached(ctx, spec, opts)
		results[i] = res{scores, vers}
		return serr
	})
	if err != nil {
		return nil, nil, err
	}
	scores := make([]nodeScore, 0, len(f.nodes))
	vers := make([]uint64, 0, len(f.nodes))
	for _, r := range results {
		scores = append(scores, r.scores...)
		vers = append(vers, r.vers...)
	}
	return scores, vers, nil
}

// placeAttempts bounds the optimistic commit attempts of one arrival
// before it falls back to the in-lock path (which always terminates).
const placeAttempts = 8

// commitDetached runs the optimistic commit attempts of one arrival
// against its scored vector: pick globally, commit on the winner's shard
// against its stamp; a conflict refreshes only the conflicted node's entry
// and re-picks. A queue entry (opts.ticket != 0) is claimed around each
// commit, so a concurrent cancel either wins first (pumpGone) or sees the
// claim. pumpFull means the arrival needs the in-lock path, not yet that
// it fits nowhere: nothing was feasible, the watt budget refused the pick
// (a capacity verdict, which only the in-lock path may act on), a conflict
// hit a MaxFeasible cut, or the attempts ran out. An error is a
// non-capacity failure.
func (f *Fleet) commitDetached(ctx context.Context, spec *workload.Spec, opts PlaceOptions, scores []nodeScore, vers []uint64) (Placed, pumpOutcome, error) {
	for attempt := 0; attempt < placeAttempts; attempt++ {
		pick := f.pipe.pipe.Selector().Pick(scores)
		if pick < 0 {
			return Placed{}, pumpFull, nil
		}
		if opts.ticket != 0 && !f.claim(opts.ticket) {
			return Placed{}, pumpGone, nil
		}
		sh, local := f.shardOf(pick)
		p, ok, err := sh.commitScored(ctx, spec, opts, local, scores[pick], vers[pick])
		if opts.ticket != 0 {
			f.settle(opts.ticket, &p, ok)
		} else if ok {
			f.placed.Inc()
		}
		switch {
		case ok:
			return p, pumpPlaced, nil
		case errors.Is(err, ErrFleetFull):
			return Placed{}, pumpFull, nil
		case err != nil:
			return Placed{}, pumpGone, err
		}
		// Registered lazily: a standalone fleet's exposition gains the
		// counter only once it has something to say.
		f.reg.Counter("fleet_shard_conflict_total").Inc()
		if f.cfg.MaxFeasible > 0 {
			return Placed{}, pumpFull, nil
		}
		ns, nv, err := sh.rescoreNodeDetached(ctx, local, spec, opts)
		if err != nil {
			return Placed{}, pumpGone, err
		}
		scores[pick], vers[pick] = ns, nv
	}
	return Placed{}, pumpFull, nil
}

// claim marks a queue entry committing before its commit touches a shard;
// false when it was cancelled or another pump holds it.
func (f *Fleet) claim(ticket int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.ticketIndexLocked(ticket)
	if i < 0 || f.queue[i].committing {
		return false
	}
	f.queue[i].committing = true
	return true
}

// settle releases a claim after the commit; an admitted entry leaves the
// queue. The claim kept the entry queued: nothing else removes a
// committing entry.
func (f *Fleet) settle(ticket int, p *Placed, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.ticketIndexLocked(ticket)
	f.queue[i].committing = false
	if ok {
		f.admitQueuedLocked(p, i)
	}
}

// pumpHead is one optimistic admission attempt on a queue head. A
// non-capacity failure drops the entry; a head the detached pass could not
// place is confirmed under the whole lock (admitTicket), where a positive
// class may preempt and a full fleet leaves it queued.
func (f *Fleet) pumpHead(ctx context.Context, q queued) (Placed, pumpOutcome) {
	opts := q.opts()
	p, outcome := Placed{}, pumpGone
	scores, vers, err := f.scoreAll(ctx, q.spec, opts)
	if err == nil {
		p, outcome, err = f.commitDetached(ctx, q.spec, opts, scores, vers)
	}
	switch {
	case err != nil:
		f.dropTicket(q.ticket)
		return Placed{}, pumpGone
	case outcome == pumpFull:
		return f.admitTicket(ctx, q.ticket)
	}
	return p, outcome
}
