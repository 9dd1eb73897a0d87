// Sharded fleet: the serving tier's scale-out form. Nodes are split into
// contiguous, independently-locked groups (each an ordinary Fleet), so
// placements that commit on disjoint groups proceed concurrently instead
// of serializing on one fleet lock. Decisions stay byte-identical to the
// unsharded scheduler: every shard scores its own nodes against a
// version-stamped detached view, the per-shard score vectors concatenate
// in shard order (= global node index order), and one global selector
// reduces them with the same strict less-than tie-breaks — so, absent
// concurrent mutation, a sharded fleet picks exactly the slot the
// unsharded one would (the equivalence sweep pins this). A commit
// revalidates the winning NODE's version stamp — disjoint placements,
// even on the same shard, never invalidate each other; a conflict on
// the chosen node re-scores.
//
// That optimistic single-placement path (PlaceWith, and Pump's copy of it
// for queue heads) is all this file implements. Under every shard lock
// the sharded fleet is the unsharded fleet over the concatenated node
// list, so everything else — batches, groups, no-fit confirmation and
// preemption, rebalancing, the power cap, recovery, the state views and
// the admission queue — is Fleet's own code, run on the whole-fleet value
// `all` whose lock is every shard mutex in index order (one canonical
// order, so two cross-shard operations can never deadlock) and then its
// own mutex, which alone guards the queue. Lock order, the only one: shard
// mutexes ascending, queue mutex last; never a shard mutex while holding
// the queue mutex.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/parallel"
	"mpmc/internal/threads"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// Sharded is the sharded serving-tier scheduler. All methods are safe
// for concurrent use.
type Sharded struct {
	// all is the whole fleet: every shard's nodes in global order, the one
	// admission queue, and the registry, feature cache, score memo, solver
	// state and watt ledger the shards share.
	all    *Fleet
	shards []*Fleet
	// start[i] is shard i's first global node index; byName routes node
	// names to their shard.
	start  []int
	byName map[string]int
	// feats and capL are all's, named here for the placement fast path:
	// ONE feature cache (a placement resolves each (kind, workload) pair
	// once, not per shard) and ONE watt ledger (two shards racing the last
	// watts of headroom serialize on its lock and cannot both win).
	feats *featureCache
	capL  *capLedger

	conflicts *metrics.Counter
}

// NewSharded splits cfg.Nodes into the given number of contiguous,
// independently-locked groups. The profiling cache, score memo, solver
// state, watt ledger and registry are shared across shards (content-
// addressed or self-locking, so sharing never changes a value). With more
// than one shard the Spread policy and a MaxFeasible cut are rejected:
// both are global serial state (a rotation cursor, a first-K-feasible
// cut) that cannot be decided per-shard without changing decisions.
func NewSharded(cfg Config, shards int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fleet: shards %d < 1", shards)
	}
	if len(cfg.Nodes) < shards {
		return nil, fmt.Errorf("fleet: %d shards for %d nodes", shards, len(cfg.Nodes))
	}
	if shards > 1 {
		if cfg.Policy == Spread {
			return nil, errors.New("fleet: the Spread policy is serial (rotation cursor) and cannot shard")
		}
		if cfg.MaxFeasible > 0 {
			return nil, errors.New("fleet: MaxFeasible is a global cut and cannot shard")
		}
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	// Default node names are assigned from the GLOBAL index before the
	// split (a shard would otherwise restart at m0), so sharded node
	// identities match the unsharded fleet's exactly.
	cfg.Nodes = append([]NodeConfig(nil), cfg.Nodes...)
	for i := range cfg.Nodes {
		if cfg.Nodes[i].Name == "" {
			cfg.Nodes[i].Name = fmt.Sprintf("m%d", i)
		}
	}
	all := newShell(cfg)
	if all.capL == nil {
		// Always created (even uncapped) so a later SetPowerCap engages
		// one budget across every shard; watts 0 keeps admissions free.
		all.capL = newCapLedger()
	}
	s := &Sharded{all: all, feats: all.feats, capL: all.capL, byName: map[string]int{}}
	// Contiguous ranges, the first len%shards groups one node larger, so
	// shard order concatenation reproduces the global node index order.
	per, extra := len(cfg.Nodes)/shards, len(cfg.Nodes)%shards
	for i, startIdx := 0, 0; i < shards; i++ {
		size := per
		if i < extra {
			size++
		}
		sub := cfg
		sub.Nodes = cfg.Nodes[startIdx : startIdx+size]
		sub.QueueCap = 0 // the queue lives with the whole fleet
		sub.whole = all
		sh, err := New(sub)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		for _, n := range sh.nodes {
			if _, dup := s.byName[n.cfg.Name]; dup {
				return nil, fmt.Errorf("fleet: duplicate node name %q", n.cfg.Name)
			}
			s.byName[n.cfg.Name] = i
		}
		all.domain = append(all.domain, sh)
		all.nodes = append(all.nodes, sh.nodes...)
		s.start = append(s.start, startIdx)
		startIdx += size
	}
	s.shards = all.domain
	if err := all.wire(); err != nil {
		return nil, err
	}
	s.conflicts = all.reg.Counter("fleet_shard_conflict_total")
	all.reg.OnCollect(func(r *metrics.Registry) {
		r.Gauge("fleet_shards").Set(int64(len(s.shards)))
	})
	return s, nil
}

// Registry returns the metrics registry the sharded fleet reports into.
func (s *Sharded) Registry() *metrics.Registry { return s.all.reg }

// Policy returns the active placement policy.
func (s *Sharded) Policy() Policy { return s.all.cfg.Policy }

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// NodeNames lists node identities in global index order.
func (s *Sharded) NodeNames() []string { return s.all.NodeNames() }

// selector returns the global reduction: the whole fleet's policy bundle.
func (s *Sharded) selector() interface{ Pick([]nodeScore) int } {
	return s.all.pipe.pipe.Selector()
}

// shardOf locates the shard and shard-local node index of a global pick.
func (s *Sharded) shardOf(global int) (shard, local int) {
	shard = len(s.start) - 1
	for i := 1; i < len(s.start); i++ {
		if global < s.start[i] {
			shard = i - 1
			break
		}
	}
	return shard, global - s.start[shard]
}

// scoreAll scores the arrival on every shard concurrently (each against
// its own version-stamped detached view) and concatenates the vectors in
// shard order. The concatenation is exactly the unsharded fleet's
// node-indexed score vector for the same state; vers[i] is node i's
// version stamp at capture (pass the winner's to commitScored).
func (s *Sharded) scoreAll(ctx context.Context, spec *workload.Spec, opts PlaceOptions) ([]nodeScore, []uint64, error) {
	type res struct {
		scores []nodeScore
		vers   []uint64
	}
	results := make([]res, len(s.shards))
	// One worker per shard, capped at GOMAXPROCS: results land in
	// per-shard slots, so the worker count never changes a decision, and
	// on a small box the serial path skips the goroutine fan-out.
	w := len(s.shards)
	if p := runtime.GOMAXPROCS(0); p < w {
		w = p
	}
	err := parallel.ForEach(ctx, w, len(s.shards), func(i int) error {
		scores, vers, serr := s.shards[i].scoreArrivalDetached(ctx, spec, opts)
		if serr != nil {
			return serr
		}
		results[i] = res{scores, vers}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var all []nodeScore
	var vers []uint64
	for _, r := range results {
		all = append(all, r.scores...)
		vers = append(vers, r.vers...)
	}
	return all, vers, nil
}

// placeAttempts bounds the optimistic place loop before falling back to
// the all-locked path (which always terminates).
const placeAttempts = 8

// Place admits one arrival at the policy's best slot across all shards.
func (s *Sharded) Place(ctx context.Context, spec *workload.Spec) (Placed, error) {
	return s.PlaceWith(ctx, spec, PlaceOptions{})
}

// PlaceWith is Place with explicit scheduling options. The fast path is
// optimistic: score every shard without locks held across the solve,
// commit on the winning shard if its version is unchanged; conflicts
// re-score. After placeAttempts conflicts — or when the optimistic pass
// finds no feasible slot or the watt budget refuses its pick, which must
// be confirmed against a consistent cluster state before rejecting or
// preempting — the whole fleet's PlaceWith decides under every lock,
// exactly like the unsharded fleet.
func (s *Sharded) PlaceWith(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error) {
	if err := s.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
		return Placed{}, err
	}
	var scores []nodeScore
	var vers []uint64
	for attempt := 0; attempt < placeAttempts; attempt++ {
		if scores == nil {
			var err error
			scores, vers, err = s.scoreAll(ctx, spec, opts)
			if err != nil {
				return Placed{}, err
			}
		}
		pick := s.selector().Pick(scores)
		if pick < 0 {
			break
		}
		shard, local := s.shardOf(pick)
		p, ok, err := s.shards[shard].commitScored(ctx, spec, opts, local, scores[pick], vers[pick])
		if errors.Is(err, ErrFleetFull) {
			break
		}
		if err != nil {
			return Placed{}, err
		}
		if ok {
			s.all.placed.Inc()
			return p, nil
		}
		s.conflicts.Inc()
		// Conflict: only the chosen node changed underneath us (its stamp
		// is the one that failed), so refresh just that entry and re-pick.
		// A MaxFeasible cut is a whole-set property, so re-score fully.
		if s.all.cfg.MaxFeasible > 0 {
			scores = nil
			continue
		}
		ns, nv, rerr := s.shards[shard].rescoreNodeDetached(ctx, local, spec, opts)
		if rerr != nil {
			return Placed{}, rerr
		}
		scores[pick], vers[pick] = ns, nv
	}
	return s.all.PlaceWith(ctx, spec, opts)
}

// PlaceAll admits a batch transactionally across all shards: one
// transaction, one journal record.
func (s *Sharded) PlaceAll(ctx context.Context, specs []*workload.Spec) ([]Placed, error) {
	return s.all.PlaceAll(ctx, specs)
}

// PlaceGroup admits one thread-group arrival transactionally across all
// shards; sibling anti-affinity spans the whole fleet.
func (s *Sharded) PlaceGroup(ctx context.Context, g threads.GroupSpec) ([]Placed, error) {
	return s.all.PlaceGroup(ctx, g)
}

// Submit enqueues an arrival; SubmitWith adds a priority class. The
// returned ticket cancels the submission. The queue accessors take the
// queue mutex alone and never wait for a shard.
func (s *Sharded) Submit(spec *workload.Spec, tag string) (int, error) {
	return s.all.SubmitWith(spec, tag, 0)
}

// SubmitWith is Submit with a priority class.
func (s *Sharded) SubmitWith(spec *workload.Spec, tag string, priority int) (int, error) {
	return s.all.SubmitWith(spec, tag, priority)
}

// CancelQueued withdraws a pending submission; false for a committing
// entry (see Fleet.CancelQueued).
func (s *Sharded) CancelQueued(ticket int) bool { return s.all.CancelQueued(ticket) }

// QueueDepth returns the number of pending arrivals.
func (s *Sharded) QueueDepth() int { return s.all.QueueDepth() }

// QueuedInfo snapshots the admission queue in queue order.
func (s *Sharded) QueuedInfo() []QueuedEntry { return s.all.QueuedInfo() }

// pumpFast runs the optimistic commit attempts for one queue head
// against its scored vector; conflicts refresh only the conflicted
// node's entry (see PlaceWith) and re-pick. pumpFull means the head needs
// the all-locked confirmation, not yet that it fits nowhere. cascade: see
// pump.
func (s *Sharded) pumpFast(ctx context.Context, q queued, scores []nodeScore, vers []uint64, cascade bool) (Placed, pumpOutcome) {
	a := s.all
	for attempt := 0; attempt < placeAttempts; attempt++ {
		pick := s.selector().Pick(scores)
		if pick < 0 {
			return Placed{}, pumpFull
		}

		// Mark committing before touching the shard: a concurrent cancel
		// must see the claim (and a cancel that won first wins).
		a.mu.Lock()
		idx := a.ticketIndexLocked(q.ticket)
		if idx < 0 || a.queue[idx].committing {
			a.mu.Unlock()
			return Placed{}, pumpGone
		}
		a.queue[idx].committing = true
		a.mu.Unlock()

		shard, local := s.shardOf(pick)
		p, ok, cerr := s.shards[shard].commitScored(ctx, q.spec, q.opts(), local, scores[pick], vers[pick])

		// The claim kept the entry in the queue: nothing else removes a
		// committing entry.
		a.mu.Lock()
		idx = a.ticketIndexLocked(q.ticket)
		a.queue[idx].committing = false
		switch {
		case ok:
			a.admitQueuedLocked(&p, idx)
			a.mu.Unlock()
			return p, pumpPlaced
		case cascade && errors.Is(cerr, ErrFleetFull):
			// The watt budget refused the pick: a capacity verdict, which
			// only the all-locked path may act on.
			a.mu.Unlock()
			return Placed{}, pumpFull
		case cerr != nil:
			a.dropQueuedLocked(idx)
			a.flushJournalLocked()
			a.mu.Unlock()
			return Placed{}, pumpGone
		}
		// Version conflict: the claim is released; refresh the conflicted
		// node and re-pick. A MaxFeasible cut cannot refresh per-node.
		a.mu.Unlock()
		s.conflicts.Inc()
		if a.cfg.MaxFeasible > 0 {
			return Placed{}, pumpFull
		}
		ns, nv, rerr := s.shards[shard].rescoreNodeDetached(ctx, local, q.spec, q.opts())
		if rerr != nil {
			a.dropTicket(q.ticket)
			return Placed{}, pumpGone
		}
		scores[pick], vers[pick] = ns, nv
	}
	return Placed{}, pumpFull
}

// Pump tries to admit queued arrivals in admission order, stopping at
// the first head that fits nowhere. Scoring runs without any lock held
// across the solves; a cancelled context returns with every unplaced
// entry still queued. Heads come from the whole fleet's queue under the
// queue mutex alone, so a pump that finds it empty never takes a shard
// lock; a head the optimistic pass cannot place is confirmed — and, for
// positive classes, preempted for — under every lock (Fleet.admitTicket).
func (s *Sharded) Pump(ctx context.Context) ([]Placed, error) { return s.pump(ctx, false) }

// pump is Pump; cascade marks the pump a departure triggers. The two
// differ exactly where Fleet's in-lock cascade (Remove) and detached pump
// (Pump, RestoreNode) do: when the watt budget refuses a scored pick at
// commit, the cascade treats the fleet as full for that head — confirm
// under every lock, preempt or block — and the detached pump drops the
// head as failed. chaos_cap_seed1.json pins both on the unsharded fleet.
func (s *Sharded) pump(ctx context.Context, cascade bool) ([]Placed, error) {
	a := s.all
	if err := s.feats.resolve(ctx, a.pendingSpecs()); err != nil {
		return nil, err
	}
	var out []Placed
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		q, ok := a.nextHead(first)
		if !ok {
			return out, nil
		}
		var p Placed
		outcome := pumpGone
		if scores, vers, err := s.scoreAll(ctx, q.spec, q.opts()); err != nil {
			// Non-capacity failure: drop the head like the unsharded pump.
			a.dropTicket(q.ticket)
		} else if p, outcome = s.pumpFast(ctx, q, scores, vers, cascade); outcome == pumpFull {
			p, outcome = a.admitTicket(ctx, q.ticket)
		}
		switch outcome {
		case pumpPlaced:
			out = append(out, p)
		case pumpFull:
			// Confirmed full for this head: strict head-of-line.
			return out, nil
		}
	}
}

// shardFor routes a node name to its shard.
func (s *Sharded) shardFor(node string) (*Fleet, error) {
	si, ok := s.byName[node]
	if !ok {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, node)
	}
	return s.shards[si], nil
}

// Remove evicts the named instance from the named node, under that node's
// shard lock alone, and pumps the queue into the freed capacity. (The
// shard's own queue is always empty, so its internal pump is a no-op.)
func (s *Sharded) Remove(ctx context.Context, nodeName, instance string) ([]Placed, error) {
	sh, err := s.shardFor(nodeName)
	if err != nil {
		return nil, err
	}
	if _, err := sh.Remove(ctx, nodeName, instance); err != nil {
		return nil, err
	}
	return s.pump(ctx, true)
}

// FailNode marks a machine lost on its shard (evicting residents).
func (s *Sharded) FailNode(name string) ([]manager.Resident, error) {
	sh, err := s.shardFor(name)
	if err != nil {
		return nil, err
	}
	return sh.FailNode(name)
}

// RestoreNode brings a down machine back and pumps the queue.
func (s *Sharded) RestoreNode(ctx context.Context, name string) ([]Placed, error) {
	sh, err := s.shardFor(name)
	if err != nil {
		return nil, err
	}
	if _, err := sh.RestoreNode(ctx, name); err != nil {
		return nil, err
	}
	return s.Pump(ctx)
}

// State reports the fleet-wide view, consistent across shards.
func (s *Sharded) State(ctx context.Context) (*State, error) { return s.all.State(ctx) }

// PowerCap returns the active fleet-wide watt budget (0 = uncapped).
func (s *Sharded) PowerCap() float64 { return s.all.PowerCap() }

// CapUsage returns the shared ledger's current fleet draw estimate.
func (s *Sharded) CapUsage() float64 { return s.all.CapUsage() }

// SetPowerCap sets (watts > 0) or clears (watts == 0) the fleet-wide
// power budget, re-syncing every ledger row under every shard lock.
func (s *Sharded) SetPowerCap(ctx context.Context, watts float64) error {
	return s.all.SetPowerCap(ctx, watts)
}

// EnforceCap brings the fleet back under its watt budget; migrations may
// cross shards.
func (s *Sharded) EnforceCap(ctx context.Context) (CapReport, error) {
	return s.all.EnforceCap(ctx)
}

// FreqStates reports every node's current DVFS rung, keyed by node name.
func (s *Sharded) FreqStates() map[string]int { return s.all.FreqStates() }

// Totals sums the fleet's predicted SPI and watts in node order.
func (s *Sharded) Totals(ctx context.Context) (spi, watts float64, err error) {
	return s.all.Totals(ctx)
}

// Inspect captures every node's state in global node order, consistent
// across shards.
func (s *Sharded) Inspect() []NodeInspection { return s.all.Inspect() }

// Rebalance finds and executes the single best cross-machine move
// fleet-wide — source and destination may live on different shards.
func (s *Sharded) Rebalance(ctx context.Context, minImprovement float64) (Move, error) {
	return s.all.Rebalance(ctx, minImprovement)
}

// Recover reinstates a WAL-recovered state into a pristine fleet.
func (s *Sharded) Recover(ctx context.Context, st *wal.State) error {
	return s.all.Recover(ctx, st)
}
