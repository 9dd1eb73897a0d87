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
// Cross-group operations (PlaceAll, Rebalance, the slow placement path)
// take every shard lock in index order — one canonical order, so two
// concurrent cross-group operations can never deadlock.
//
// The admission queue lives at the sharded layer under its own lock
// (shards run with queueing disabled). Divergences from the unsharded
// fleet, both documented in DESIGN.md: preemption victims are chosen
// shard-locally (first shard in index order with an outranked resident),
// and victims are reported un-requeued rather than re-entering the queue
// with ledger backoff.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"mpmc/internal/core"
	"mpmc/internal/freq"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/parallel"
	"mpmc/internal/threads"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// shardedQueued is one pending arrival in the sharded queue.
type shardedQueued struct {
	spec     *workload.Spec
	tag      string
	ticket   int
	priority int
	// committing marks an entry whose placement commit is in flight on a
	// shard: CancelQueued refuses it (the process will land placed), which
	// keeps cancel-vs-pump unambiguous even though the queue lock and the
	// shard locks are different locks.
	committing bool
}

// Sharded is the sharded serving-tier scheduler. All methods are safe
// for concurrent use.
type Sharded struct {
	cfg    Config
	shards []*Fleet
	// start[i] is shard i's first global node index; byName routes node
	// names to (shard, fleet-local operations).
	start  []int
	byName map[string]int
	reg    *metrics.Registry
	// feats is the ONE feature cache every shard shares; its kinds are the
	// union of the shards' machine kinds in global node order, so a
	// placement resolves each (kind, workload) pair once, not per shard.
	feats *featureCache
	// capL is the ONE watt ledger every shard shares: cross-shard
	// admission against the power cap serializes on its lock, so two
	// shards racing the last watts of headroom cannot both win.
	capL *capLedger

	queue *shardedQueue

	placed     *metrics.Counter
	rejected   *metrics.Counter
	conflicts  *metrics.Counter
	qSubmitted *metrics.Counter
	qAdmitted  *metrics.Counter
	qRejected  *metrics.Counter
	qAbandoned *metrics.Counter
	qDropped   *metrics.Counter
}

// shardedQueue is the sharded layer's admission queue (its own lock, so
// no shard lock is ever held while touching it). It reuses the Fleet's
// mutex-free helpers by embedding into a private Fleet-shaped holder.
type shardedQueue struct {
	mu      chMutex
	entries []shardedQueued
	seq     int
	cap     int
}

// chMutex is a channel-based mutex: unlike sync.Mutex it supports
// try-lock-free context-observing patterns if ever needed; here it is
// used as a plain mutex.
type chMutex chan struct{}

func newChMutex() chMutex {
	m := make(chMutex, 1)
	return m
}
func (m chMutex) Lock()   { m <- struct{}{} }
func (m chMutex) Unlock() { <-m }

// NewSharded splits cfg.Nodes into the given number of contiguous,
// independently-locked groups. The profiling cache, score memo, and
// solver state are shared across shards (content-addressed, so sharing
// never changes a value). With more than one shard the Spread policy and
// a MaxFeasible cut are rejected: both are global serial state (a
// rotation cursor, a first-K-feasible cut) that cannot be decided
// per-shard without changing decisions.
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
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 256
	}
	if cfg.ScoreCacheCap == 0 {
		cfg.ScoreCacheCap = 4096
	}
	if cfg.PowerCap < 0 {
		return nil, fmt.Errorf("fleet: negative PowerCap %v", cfg.PowerCap)
	}
	s := &Sharded{
		cfg:    cfg,
		reg:    cfg.Registry,
		byName: map[string]int{},
		queue:  &shardedQueue{mu: newChMutex(), cap: cfg.QueueCap},
		// Always created (even uncapped) so a later SetPowerCap engages
		// one budget across every shard; watts 0 keeps admissions free.
		capL: newCapLedger(),
	}
	s.capL.setCap(cfg.PowerCap)
	shared := cfg
	shared.Registry = s.reg
	s.feats = newFeatureCache(shared, s.reg)
	var scores *scoreCache
	var solver *core.SolverState
	if cfg.ScoreCacheCap > 0 {
		scores = newScoreCache(cfg.ScoreCacheCap, cfg.Intercept)
		solver = core.NewSolverState(cfg.ScoreCacheCap)
	}
	// Default node names are assigned from the GLOBAL index before the
	// split (a shard would otherwise restart at m0), so sharded node
	// identities match the unsharded fleet's exactly.
	named := append([]NodeConfig(nil), cfg.Nodes...)
	for i := range named {
		if named[i].Name == "" {
			named[i].Name = fmt.Sprintf("m%d", i)
		}
	}
	cfg.Nodes = named
	// Contiguous ranges, the first len%shards groups one node larger, so
	// shard order concatenation reproduces the global node index order.
	per, extra := len(cfg.Nodes)/shards, len(cfg.Nodes)%shards
	startIdx := 0
	for i := 0; i < shards; i++ {
		size := per
		if i < extra {
			size++
		}
		sub := cfg
		sub.Nodes = cfg.Nodes[startIdx : startIdx+size]
		sub.QueueCap = 0 // the queue lives at the sharded layer
		sub.Registry = metrics.NewRegistry()
		sub.sharedFeats = s.feats
		sub.sharedScores = scores
		sub.sharedSolver = solver
		sub.sharedCap = s.capL
		if scores == nil {
			// Cold mode everywhere: a shard must not build its own caches.
			sub.ScoreCacheCap = cfg.ScoreCacheCap
		}
		sh, err := New(sub)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, sh)
		s.start = append(s.start, startIdx)
		for _, n := range sh.nodes {
			if _, dup := s.byName[n.cfg.Name]; dup {
				return nil, fmt.Errorf("fleet: duplicate node name %q", n.cfg.Name)
			}
			s.byName[n.cfg.Name] = i
		}
		startIdx += size
	}
	s.placed = s.reg.Counter("fleet_place_total")
	s.rejected = s.reg.Counter("fleet_place_rejected_total")
	s.conflicts = s.reg.Counter("fleet_shard_conflict_total")
	s.qSubmitted = s.reg.Counter("fleet_queue_submitted_total")
	s.qAdmitted = s.reg.Counter("fleet_queue_admitted_total")
	s.qRejected = s.reg.Counter("fleet_queue_rejected_total")
	s.qAbandoned = s.reg.Counter("fleet_queue_abandoned_total")
	s.qDropped = s.reg.Counter("fleet_queue_dropped_total")
	s.reg.OnCollect(s.collectGauges)
	return s, nil
}

// Registry returns the metrics registry the sharded fleet reports into.
func (s *Sharded) Registry() *metrics.Registry { return s.reg }

// Policy returns the active placement policy.
func (s *Sharded) Policy() Policy { return s.cfg.Policy }

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// NodeNames lists node identities in global index order.
func (s *Sharded) NodeNames() []string {
	var out []string
	for _, sh := range s.shards {
		out = append(out, sh.NodeNames()...)
	}
	return out
}

// journal hands one completed queue operation's events to the journal.
func (s *Sharded) journal(events []wal.Event) {
	if s.cfg.Journal != nil {
		s.cfg.Journal(events)
	}
}

// selector returns the global reduction (every shard runs the same
// policy, so shard 0's is the fleet's).
func (s *Sharded) selector() interface{ Pick([]nodeScore) int } {
	return s.shards[0].pipe.pipe.Selector()
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
// the all-shard-locked slow path (which always terminates).
const placeAttempts = 8

// Place admits one arrival at the policy's best slot across all shards.
func (s *Sharded) Place(ctx context.Context, spec *workload.Spec) (Placed, error) {
	return s.PlaceWith(ctx, spec, PlaceOptions{})
}

// PlaceWith is Place with explicit scheduling options. The fast path is
// optimistic: score every shard without locks held across the solve,
// commit on the winning shard if its version is unchanged; conflicts
// re-score. After placeAttempts conflicts — or when the optimistic pass
// sees no feasible slot, which must be confirmed against a consistent
// cluster state before rejecting — the slow path takes every shard lock
// in index order and decides exactly like the unsharded fleet.
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
			break // confirm under full lock before rejecting or preempting
		}
		shard, local := s.shardOf(pick)
		p, ok, err := s.shards[shard].commitScored(ctx, spec, opts, local, scores[pick], vers[pick])
		if err != nil {
			return Placed{}, err
		}
		if ok {
			s.placed.Inc()
			return p, nil
		}
		s.conflicts.Inc()
		// Conflict: only the chosen node changed underneath us (its stamp
		// is the one that failed), so refresh just that entry and re-pick.
		// A MaxFeasible cut is a whole-set property, so re-score fully.
		if s.cfg.MaxFeasible > 0 {
			scores = nil
			continue
		}
		ns, nv, rerr := s.shards[shard].rescoreNodeDetached(ctx, local, spec, opts)
		if rerr != nil {
			return Placed{}, rerr
		}
		scores[pick], vers[pick] = ns, nv
	}
	return s.placeSlow(ctx, spec, opts)
}

// lockAll / unlockAll take and release every shard lock in index order —
// the one canonical order every cross-group operation uses.
func (s *Sharded) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Sharded) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// snapshotAllLocked snapshots every shard's node managers for a batch
// rollback. Callers hold every lock.
func (s *Sharded) snapshotAllLocked() [][]*manager.Snapshot {
	snaps := make([][]*manager.Snapshot, len(s.shards))
	for si, sh := range s.shards {
		snaps[si] = make([]*manager.Snapshot, len(sh.nodes))
		for i, n := range sh.nodes {
			snaps[si][i] = n.mgr.Snapshot()
		}
	}
	return snaps
}

// decideAllLocked scores the arrival over every shard with all locks
// held and returns the concatenated vector. Callers hold every lock.
func (s *Sharded) decideAllLocked(ctx context.Context, spec *workload.Spec, opts PlaceOptions) ([]nodeScore, error) {
	var all []nodeScore
	for _, sh := range s.shards {
		view, err := sh.captureViewLocked(ctx, spec, opts)
		if err != nil {
			return nil, err
		}
		scores, err := sh.scoreViewDetached(ctx, view, spec)
		if err != nil {
			return nil, err
		}
		all = append(all, scores...)
	}
	return all, nil
}

// placeSlow is the all-locked placement path: deterministic, conflict-
// free, and the only authority allowed to reject an arrival or preempt.
func (s *Sharded) placeSlow(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error) {
	s.lockAll()
	defer s.unlockAll()
	scores, err := s.decideAllLocked(ctx, spec, opts)
	if err != nil {
		return Placed{}, err
	}
	pick := s.selector().Pick(scores)
	if pick >= 0 {
		shard, local := s.shardOf(pick)
		sh := s.shards[shard]
		p, err := sh.commitLocked(ctx, spec, opts, local, scores[pick])
		if err != nil {
			sh.discardJournalLocked()
			return Placed{}, err
		}
		sh.flushJournalLocked()
		s.placed.Inc()
		return p, nil
	}
	if opts.Priority > 0 {
		// Shard-local preemption, shards in index order (documented
		// divergence: the unsharded fleet picks the globally cheapest
		// victim; the sharded one the first shard's cheapest).
		for _, sh := range s.shards {
			pp, ok, perr := sh.preemptLocked(ctx, spec, opts)
			if perr != nil {
				sh.discardJournalLocked()
				return Placed{}, perr
			}
			if ok {
				sh.flushJournalLocked()
				s.placed.Inc()
				return pp, nil
			}
		}
	}
	s.rejected.Inc()
	return Placed{}, fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name)
}

// PlaceAll admits a batch transactionally across all shards: every
// instance is admitted or every shard's machines are restored.
func (s *Sharded) PlaceAll(ctx context.Context, specs []*workload.Spec) ([]Placed, error) {
	if err := s.feats.resolve(ctx, specs); err != nil {
		return nil, err
	}
	s.lockAll()
	defer s.unlockAll()
	// A one-spec batch commits nothing before its only fallible step (see
	// Fleet.Place), so there is nothing a snapshot could restore.
	var snaps [][]*manager.Snapshot
	if len(specs) > 1 {
		snaps = s.snapshotAllLocked()
	}
	admitted := 0
	rollback := func(cause error) error {
		for si, sh := range s.shards {
			if snaps != nil {
				for i, n := range sh.nodes {
					n.mgr.Restore(snaps[si][i])
				}
			}
			sh.discardJournalLocked()
		}
		if errors.Is(cause, ErrFleetFull) {
			s.rejected.Inc()
		}
		if admitted > 0 {
			return fmt.Errorf("fleet: batch rolled back after %d placement(s): %w", admitted, cause)
		}
		return cause
	}
	out := make([]Placed, len(specs))
	for i, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, rollback(err)
		}
		scores, err := s.decideAllLocked(ctx, spec, PlaceOptions{})
		if err != nil {
			return nil, rollback(err)
		}
		pick := s.selector().Pick(scores)
		if pick < 0 {
			return nil, rollback(fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name))
		}
		shard, local := s.shardOf(pick)
		p, err := s.shards[shard].commitLocked(ctx, spec, PlaceOptions{}, local, scores[pick])
		if err != nil {
			return nil, rollback(err)
		}
		admitted++
		out[i] = p
	}
	for _, sh := range s.shards {
		sh.flushJournalLocked()
	}
	s.placed.Add(uint64(len(out)))
	return out, nil
}

// PlaceGroup admits one thread-group arrival transactionally across all
// shards, mirroring Fleet.PlaceGroup: the policy shapes the group into
// bundle specs (internal/threads), every member is admitted or every
// shard's machines are restored, and the group member ledger balances
// either way. Under SpreadSharers the sibling anti-affinity preference
// spans the whole fleet (global node indices), so decisions match the
// single-lock fleet whenever both see the same scores.
func (s *Sharded) PlaceGroup(ctx context.Context, g threads.GroupSpec) ([]Placed, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	specs, antiAffinity, err := shapeGroup(s.cfg.Policy, g)
	if err != nil {
		return nil, err
	}
	if err := s.feats.resolve(ctx, specs); err != nil {
		return nil, err
	}
	members := uint64(g.Threads)
	s.lockAll()
	defer s.unlockAll()
	s.reg.Counter("fleet_group_spawned_members_total").Add(members)
	snaps := s.snapshotAllLocked()
	admitted := 0
	rollback := func(cause error) error {
		for si, sh := range s.shards {
			for i, n := range sh.nodes {
				n.mgr.Restore(snaps[si][i])
			}
			sh.discardJournalLocked()
		}
		s.reg.Counter("fleet_group_faulted_members_total").Add(members)
		s.reg.Counter("fleet_groups_rejected_total").Inc()
		if errors.Is(cause, ErrFleetFull) {
			s.rejected.Inc()
		}
		if admitted > 0 {
			return fmt.Errorf("fleet: group rolled back after %d member placement(s): %w", admitted, cause)
		}
		return cause
	}
	out := make([]Placed, len(specs))
	used := map[int]bool{}
	for i, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, rollback(err)
		}
		scores, err := s.decideAllLocked(ctx, spec, PlaceOptions{})
		if err != nil {
			return nil, rollback(err)
		}
		pick := -1
		if antiAffinity {
			// Prefer nodes no sibling of this arrival occupies; fall back
			// to the plain selector when every admissible node is taken.
			for j, sc := range scores {
				if sc.OK && !used[j] && (pick < 0 || sc.Value < scores[pick].Value) {
					pick = j
				}
			}
		}
		if pick < 0 {
			pick = s.selector().Pick(scores)
		}
		if pick < 0 {
			return nil, rollback(fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name))
		}
		shard, local := s.shardOf(pick)
		p, err := s.shards[shard].commitLocked(ctx, spec, PlaceOptions{}, local, scores[pick])
		if err != nil {
			return nil, rollback(err)
		}
		used[pick] = true
		admitted++
		out[i] = p
	}
	for _, sh := range s.shards {
		sh.flushJournalLocked()
	}
	s.placed.Add(uint64(len(out)))
	s.reg.Counter("fleet_group_placed_members_total").Add(members)
	s.reg.Counter("fleet_groups_placed_total").Inc()
	return out, nil
}

// Submit enqueues an arrival; SubmitWith adds a priority class. The
// returned ticket cancels the submission.
func (s *Sharded) Submit(spec *workload.Spec, tag string) (int, error) {
	return s.SubmitWith(spec, tag, 0)
}

// SubmitWith is Submit with a priority class.
func (s *Sharded) SubmitWith(spec *workload.Spec, tag string, priority int) (int, error) {
	q := s.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cap <= 0 || len(q.entries) >= q.cap {
		s.qRejected.Inc()
		return 0, fmt.Errorf("fleet: %w (cap %d) for %s", ErrQueueFull, q.cap, spec.Name)
	}
	q.seq++
	q.entries = append(q.entries, shardedQueued{spec: spec, tag: tag, ticket: q.seq, priority: priority})
	s.qSubmitted.Inc()
	s.journal([]wal.Event{{Type: wal.EvSubmitted, Bench: spec.Name, Tag: tag, Priority: priority, Ticket: q.seq}})
	return q.seq, nil
}

// CancelQueued withdraws a pending submission. A committing entry — its
// placement commit already in flight on a shard — reports false: that
// process will land placed, so cancel-vs-pump stays unambiguous.
func (s *Sharded) CancelQueued(ticket int) bool {
	q := s.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, e := range q.entries {
		if e.ticket != ticket {
			continue
		}
		if e.committing {
			return false
		}
		q.entries = append(q.entries[:i], q.entries[i+1:]...)
		s.qAbandoned.Inc()
		s.journal([]wal.Event{{Type: wal.EvCancelled, Ticket: ticket}})
		return true
	}
	return false
}

// QueueDepth returns the number of pending arrivals.
func (s *Sharded) QueueDepth() int {
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	return len(s.queue.entries)
}

// QueuedInfo snapshots the sharded admission queue in queue order.
func (s *Sharded) QueuedInfo() []QueuedEntry {
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	out := make([]QueuedEntry, len(s.queue.entries))
	for i, e := range s.queue.entries {
		out[i] = QueuedEntry{Workload: e.spec.Name, Tag: e.tag, Ticket: e.ticket, Priority: e.priority, Eligible: true}
	}
	return out
}

// headLocked picks the pump head (highest priority class, FIFO within a
// class), skipping committing entries. Queue lock held.
func (q *shardedQueue) headLocked() int {
	head := -1
	for i, e := range q.entries {
		if e.committing {
			continue
		}
		if head < 0 || e.priority > q.entries[head].priority {
			head = i
		}
	}
	return head
}

func (q *shardedQueue) indexOf(ticket int) int {
	for i, e := range q.entries {
		if e.ticket == ticket {
			return i
		}
	}
	return -1
}

// dropTicket removes a queued entry after a non-capacity failure,
// mirroring the unsharded pump's drop accounting. A committing entry is
// left alone: its in-flight commit owns the disposition.
func (s *Sharded) dropTicket(ticket int) {
	q := s.queue
	q.mu.Lock()
	if idx := q.indexOf(ticket); idx >= 0 && !q.entries[idx].committing {
		q.entries = append(q.entries[:idx], q.entries[idx+1:]...)
		s.qDropped.Inc()
		s.journal([]wal.Event{{Type: wal.EvDropped, Ticket: ticket}})
	}
	q.mu.Unlock()
}

// pumpFastOutcome enumerates pumpFast's results.
type pumpFastOutcome int

const (
	pumpPlaced pumpFastOutcome = iota // committed; the Placed is valid
	pumpGone                          // head dropped or cancelled: next head
	pumpFull                          // no feasible slot (or attempts spent): confirm via pumpSlow
)

// pumpFast runs the optimistic commit attempts for one queue head
// against its scored vector; conflicts refresh only the conflicted
// node's entry (see PlaceWith) and re-pick.
func (s *Sharded) pumpFast(ctx context.Context, e shardedQueued, opts PlaceOptions, scores []nodeScore, vers []uint64) (Placed, pumpFastOutcome) {
	q := s.queue
	for attempt := 0; attempt < placeAttempts; attempt++ {
		pick := s.selector().Pick(scores)
		if pick < 0 {
			return Placed{}, pumpFull
		}

		// Mark committing before touching the shard: a concurrent cancel
		// must see the claim (and a cancel that won first wins).
		q.mu.Lock()
		idx := q.indexOf(e.ticket)
		if idx < 0 {
			q.mu.Unlock()
			return Placed{}, pumpGone
		}
		q.entries[idx].committing = true
		q.mu.Unlock()

		shard, local := s.shardOf(pick)
		p, ok, cerr := s.shards[shard].commitScored(ctx, e.spec, opts, local, scores[pick], vers[pick])

		q.mu.Lock()
		idx = q.indexOf(e.ticket)
		switch {
		case cerr != nil:
			if idx >= 0 {
				q.entries = append(q.entries[:idx], q.entries[idx+1:]...)
				s.qDropped.Inc()
				s.journal([]wal.Event{{Type: wal.EvDropped, Ticket: e.ticket}})
			}
			q.mu.Unlock()
			return Placed{}, pumpGone
		case ok:
			if idx >= 0 {
				q.entries = append(q.entries[:idx], q.entries[idx+1:]...)
			}
			s.placed.Inc()
			s.qAdmitted.Inc()
			q.mu.Unlock()
			p.Tag = e.tag
			return p, pumpPlaced
		default:
			// Version conflict: release the claim, refresh the conflicted
			// node, re-pick. A MaxFeasible cut cannot refresh per-node.
			if idx >= 0 {
				q.entries[idx].committing = false
			}
			s.conflicts.Inc()
			q.mu.Unlock()
			if s.cfg.MaxFeasible > 0 {
				return Placed{}, pumpFull
			}
			ns, nv, rerr := s.shards[shard].rescoreNodeDetached(ctx, local, e.spec, opts)
			if rerr != nil {
				s.dropTicket(e.ticket)
				return Placed{}, pumpGone
			}
			scores[pick], vers[pick] = ns, nv
		}
	}
	return Placed{}, pumpFull
}

// Pump tries to admit queued arrivals in admission order, stopping at
// the first head that fits nowhere. Scoring runs without any lock held
// across the solves; a cancelled context returns with every unplaced
// entry still queued.
func (s *Sharded) Pump(ctx context.Context) ([]Placed, error) {
	var pending []*workload.Spec
	q := s.queue
	q.mu.Lock()
	for _, e := range q.entries {
		pending = append(pending, e.spec)
	}
	q.mu.Unlock()
	if err := s.feats.resolve(ctx, pending); err != nil {
		return nil, err
	}
	var out []Placed
	for {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		q.mu.Lock()
		head := q.headLocked()
		if head < 0 {
			q.mu.Unlock()
			return out, nil
		}
		e := q.entries[head]
		q.mu.Unlock()

		opts := PlaceOptions{Tag: e.tag, Priority: e.priority, ticket: e.ticket}
		scores, vers, err := s.scoreAll(ctx, e.spec, opts)
		if err != nil {
			// Non-capacity failure: drop the head like the unsharded pump.
			s.dropTicket(e.ticket)
			continue
		}
		p, outcome := s.pumpFast(ctx, e, opts, scores, vers)
		switch outcome {
		case pumpPlaced:
			out = append(out, p)
			continue
		case pumpGone:
			continue
		}
		// pumpFull: confirm under every shard lock (preempting for
		// positive classes); a confirmed-full head blocks the queue.
		p, ok, serr := s.pumpSlow(ctx, e, opts)
		if serr != nil {
			s.dropTicket(e.ticket)
			continue
		}
		if !ok {
			// Confirmed full for this head: strict head-of-line.
			return out, nil
		}
		out = append(out, p)
	}
}

// pumpSlow confirms a no-fit head under all shard locks, preempting for
// positive classes. ok=false means confirmed full (head blocks).
func (s *Sharded) pumpSlow(ctx context.Context, e shardedQueued, opts PlaceOptions) (Placed, bool, error) {
	// Claim the entry so a concurrent cancel cannot race the commit.
	q := s.queue
	q.mu.Lock()
	idx := q.indexOf(e.ticket)
	if idx < 0 {
		q.mu.Unlock()
		return Placed{}, false, nil
	}
	q.entries[idx].committing = true
	q.mu.Unlock()
	release := func(remove, admitted bool) {
		q.mu.Lock()
		if i := q.indexOf(e.ticket); i >= 0 {
			if remove {
				q.entries = append(q.entries[:i], q.entries[i+1:]...)
			} else {
				q.entries[i].committing = false
			}
		}
		if admitted {
			s.placed.Inc()
			s.qAdmitted.Inc()
		}
		q.mu.Unlock()
	}

	s.lockAll()
	scores, err := s.decideAllLocked(ctx, e.spec, opts)
	if err != nil {
		s.unlockAll()
		release(false, false)
		return Placed{}, false, err
	}
	pick := s.selector().Pick(scores)
	if pick >= 0 {
		shard, local := s.shardOf(pick)
		sh := s.shards[shard]
		p, cerr := sh.commitLocked(ctx, e.spec, opts, local, scores[pick])
		if cerr != nil {
			sh.discardJournalLocked()
			s.unlockAll()
			release(false, false)
			return Placed{}, false, cerr
		}
		sh.flushJournalLocked()
		s.unlockAll()
		release(true, true)
		p.Tag = e.tag
		return p, true, nil
	}
	if opts.Priority > 0 {
		for _, sh := range s.shards {
			pp, ok, perr := sh.preemptLocked(ctx, e.spec, opts)
			if perr != nil {
				sh.discardJournalLocked()
				s.unlockAll()
				release(false, false)
				return Placed{}, false, perr
			}
			if ok {
				sh.flushJournalLocked()
				s.unlockAll()
				release(true, true)
				pp.Tag = e.tag
				return pp, true, nil
			}
		}
	}
	s.unlockAll()
	release(false, false)
	return Placed{}, false, nil
}

// Remove evicts the named instance from the named node and pumps the
// sharded queue into the freed capacity.
func (s *Sharded) Remove(ctx context.Context, nodeName, instance string) ([]Placed, error) {
	si, ok := s.byName[nodeName]
	if !ok {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, nodeName)
	}
	// The shard's own queue is empty, so its internal pump is a no-op;
	// admissions come from the sharded queue below.
	if _, err := s.shards[si].Remove(ctx, nodeName, instance); err != nil {
		return nil, err
	}
	return s.Pump(ctx)
}

// FailNode marks a machine lost on its shard (evicting residents);
// RestoreNode brings it back and pumps the queue.
func (s *Sharded) FailNode(name string) ([]manager.Resident, error) {
	si, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, name)
	}
	return s.shards[si].FailNode(name)
}

// RestoreNode brings a down machine back and pumps the sharded queue.
func (s *Sharded) RestoreNode(ctx context.Context, name string) ([]Placed, error) {
	si, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, name)
	}
	if _, err := s.shards[si].RestoreNode(ctx, name); err != nil {
		return nil, err
	}
	return s.Pump(ctx)
}

// State reports the fleet-wide view: shard states concatenate in shard
// order (= global node order) plus the sharded queue.
func (s *Sharded) State(ctx context.Context) (*State, error) {
	st := &State{Policy: s.cfg.Policy.String()}
	for _, sh := range s.shards {
		ss, err := sh.State(ctx)
		if err != nil {
			return nil, err
		}
		st.Nodes = append(st.Nodes, ss.Nodes...)
		st.Residents += ss.Residents
		st.TotalWatts += ss.TotalWatts
		st.TotalPredictedSPI += ss.TotalPredictedSPI
	}
	s.queue.mu.Lock()
	st.QueueDepth = len(s.queue.entries)
	for _, e := range s.queue.entries {
		st.Queued = append(st.Queued, e.spec.Name)
	}
	s.queue.mu.Unlock()
	// The shared ledger reports once at the sharded layer (the per-shard
	// states' copies are not aggregated — each shard would repeat the
	// same fleet-wide numbers).
	if cap := s.capL.capWatts(); cap > 0 {
		st.PowerCap = cap
		st.CapUsage = s.capL.usage()
	}
	return st, nil
}

// PowerCap returns the active fleet-wide watt budget (0 = uncapped).
func (s *Sharded) PowerCap() float64 { return s.capL.capWatts() }

// CapUsage returns the shared ledger's current fleet draw estimate.
func (s *Sharded) CapUsage() float64 { return s.capL.usage() }

// SetPowerCap sets (watts > 0) or clears (watts == 0) the fleet-wide
// power budget. Every shard's ledger rows are re-synced under all shard
// locks, so the budget starts measured against current reality.
func (s *Sharded) SetPowerCap(ctx context.Context, watts float64) error {
	if watts < 0 {
		return fmt.Errorf("fleet: negative power cap %v", watts)
	}
	s.lockAll()
	defer s.unlockAll()
	for _, sh := range s.shards {
		// Each call sets the SAME shared ledger's budget (idempotent) and
		// re-syncs that shard's own rows.
		if err := sh.setPowerCapLocked(ctx, watts); err != nil {
			return err
		}
	}
	return nil
}

// EnforceCap brings the sharded fleet back under its watt budget under
// every shard lock. Enforcement actions are shard-local (down-clocks are
// per-node anyway; migrations stay within a shard — a documented
// divergence from the unsharded fleet, like preemption victim choice),
// but the budget they enforce is the shared fleet-wide ledger total, so
// shards in index order shed watts until the whole fleet fits.
func (s *Sharded) EnforceCap(ctx context.Context) (CapReport, error) {
	s.lockAll()
	defer s.unlockAll()
	agg := CapReport{Cap: s.capL.capWatts(), Satisfied: true}
	if agg.Cap == 0 {
		return agg, nil
	}
	for i, sh := range s.shards {
		rep, err := sh.enforceCapLocked(ctx)
		if err != nil {
			return CapReport{}, err
		}
		if i == 0 {
			agg.WattsBefore = rep.WattsBefore
		}
		agg.WattsAfter = rep.WattsAfter
		agg.Downclocks += rep.Downclocks
		agg.Migrations += rep.Migrations
		agg.Moves = append(agg.Moves, rep.Moves...)
		agg.Satisfied = rep.Satisfied
		if rep.Satisfied {
			break
		}
	}
	return agg, nil
}

// FreqStates reports every node's current DVFS rung, keyed by node name.
func (s *Sharded) FreqStates() map[string]int {
	out := map[string]int{}
	for _, sh := range s.shards {
		for name, ix := range sh.FreqStates() {
			out[name] = ix
		}
	}
	return out
}

// Totals sums the shards' predicted SPI and watts.
func (s *Sharded) Totals(ctx context.Context) (spi, watts float64, err error) {
	for _, sh := range s.shards {
		sp, w, terr := sh.Totals(ctx)
		if terr != nil {
			return 0, 0, terr
		}
		spi += sp
		watts += w
	}
	return spi, watts, nil
}

// Inspect concatenates every shard's inspection in global node order.
// Rows are per-shard-consistent; cross-shard consistency requires the
// caller to quiesce traffic first (recovery verification does).
func (s *Sharded) Inspect() []NodeInspection {
	var out []NodeInspection
	for _, sh := range s.shards {
		out = append(out, sh.Inspect()...)
	}
	return out
}

// Rebalance finds the single best cross-machine move fleet-wide — source
// and destination may live on different shards — and executes it under
// every shard lock, taken in index order.
func (s *Sharded) Rebalance(ctx context.Context, minImprovement float64) (Move, error) {
	// Warm the shared feature cache for every (kind, resident) pair.
	var specs []*workload.Spec
	for _, sh := range s.shards {
		for _, ni := range sh.Inspect() {
			for _, r := range ni.Residents {
				specs = append(specs, r.Spec)
			}
		}
	}
	if err := s.feats.resolve(ctx, specs); err != nil {
		return Move{}, err
	}

	s.lockAll()
	defer s.unlockAll()

	if s.cfg.Intercept != nil {
		if err := s.cfg.Intercept("fleet.rebalance", ""); err != nil {
			return Move{}, err
		}
	}

	// Flatten the cluster into (shard, node) rows in global order.
	type row struct {
		sh *Fleet
		n  *node
	}
	var rows []row
	for _, sh := range s.shards {
		for _, n := range sh.nodes {
			if !n.down {
				sh.assignmentOf(n) // warm snapshots serially (see Fleet.Rebalance)
			}
			rows = append(rows, row{sh, n})
		}
	}
	base, err := parallel.Map(ctx, s.cfg.Workers, len(rows), func(i int) (float64, error) {
		r := rows[i]
		if r.n.down {
			return 0, nil
		}
		return r.sh.nodeSPI(ctx, r.n, r.sh.assignmentOf(r.n))
	})
	if err != nil {
		return Move{}, err
	}
	baseTotal := 0.0
	for _, b := range base {
		baseTotal += b
	}

	type gcand struct {
		src, dst, dstCore int
		res               manager.Resident
	}
	residents := make([][]manager.Resident, len(rows))
	for i, r := range rows {
		if r.n.down {
			continue
		}
		residents[i] = r.n.mgr.Residents()
	}
	var cands []gcand
	for i := range rows {
		for _, r := range residents[i] {
			for j, dstRow := range rows {
				if j == i || dstRow.n.down {
					continue
				}
				running := dstRow.n.mgr.Running()
				for c := 0; c < dstRow.n.cfg.Machine.NumCores; c++ {
					if dstRow.n.cfg.MaxPerCore != 0 && len(running[c]) >= dstRow.n.cfg.MaxPerCore {
						continue
					}
					cands = append(cands, gcand{src: i, dst: j, dstCore: c, res: r})
				}
			}
		}
	}
	if len(cands) == 0 {
		return Move{}, fmt.Errorf("fleet: %w: no movable process", manager.ErrNoImprovement)
	}

	totals, err := parallel.Map(ctx, s.cfg.Workers, len(cands), func(k int) (float64, error) {
		cd := cands[k]
		srcRow, dstRow := rows[cd.src], rows[cd.dst]
		srcAfter, err := srcRow.sh.nodeSPI(ctx, srcRow.n,
			withoutResident(srcRow.sh.assignmentOf(srcRow.n), cd.res))
		if err != nil {
			return 0, err
		}
		feat, err := dstRow.sh.feats.get(ctx, dstRow.n.kind, cd.res.Spec)
		if err != nil {
			return 0, err
		}
		dstAfter, err := dstRow.sh.nodeSPI(ctx, dstRow.n,
			withAdditionShared(dstRow.sh.assignmentOf(dstRow.n), feat, cd.dstCore))
		if err != nil {
			return 0, err
		}
		return baseTotal - base[cd.src] - base[cd.dst] + srcAfter + dstAfter, nil
	})
	if err != nil {
		return Move{}, err
	}
	best := 0
	for k := range totals {
		if totals[k] < totals[best] {
			best = k
		}
	}
	improvement := baseTotal - totals[best]
	if improvement <= minImprovement || improvement <= 0 {
		return Move{}, fmt.Errorf("fleet: %w: best move saves %.4g SPI (threshold %.4g)",
			manager.ErrNoImprovement, improvement, minImprovement)
	}

	cd := cands[best]
	srcRow, dstRow := rows[cd.src], rows[cd.dst]
	capMove := s.capL.capWatts() > 0
	var srcW, dstW float64
	if capMove {
		// Same budget check as Fleet.Rebalance: the priced post-move draws
		// double as the ledger rows after execution.
		srcWU, err := srcRow.n.cm.EstimateAssignmentContext(ctx, withoutResident(srcRow.sh.assignmentOf(srcRow.n), cd.res))
		if err != nil {
			return Move{}, err
		}
		feat, err := dstRow.sh.feats.get(ctx, dstRow.n.kind, cd.res.Spec)
		if err != nil {
			return Move{}, err
		}
		dstWU, err := dstRow.n.cm.EstimateAdditionContext(ctx, dstRow.sh.assignmentOf(dstRow.n), feat, cd.dstCore)
		if err != nil {
			return Move{}, err
		}
		srcW = freq.ScaleWatts(srcWU, staticWatts(srcRow.n), dynScaleOf(srcRow.n))
		dstW = freq.ScaleWatts(dstWU, staticWatts(dstRow.n), dynScaleOf(dstRow.n))
		next := s.capL.usage() - s.capL.nodeWatts(srcRow.n.cfg.Name) - s.capL.nodeWatts(dstRow.n.cfg.Name) + srcW + dstW
		if cap := s.capL.capWatts(); next > cap {
			return Move{}, fmt.Errorf("fleet: %w: best move needs %.4g W against a %.4g W cap",
				manager.ErrNoImprovement, next, cap)
		}
	}
	srcSnap, dstSnap := srcRow.n.mgr.Snapshot(), dstRow.n.mgr.Snapshot()
	rollback := func(cause error) error {
		srcRow.n.mgr.Restore(srcSnap)
		dstRow.n.mgr.Restore(dstSnap)
		return fmt.Errorf("fleet: rebalance rolled back: %w", cause)
	}
	if err := srcRow.n.mgr.Remove(cd.res.Name); err != nil {
		return Move{}, rollback(err)
	}
	newName, _, err := dstRow.n.mgr.PlaceAt(ctx, cd.res.Spec, cd.dstCore)
	if err != nil {
		return Move{}, rollback(err)
	}
	var meta residentMeta
	if m, ok := srcRow.n.meta[cd.res.Name]; ok {
		meta = m
		delete(srcRow.n.meta, cd.res.Name)
		if dstRow.n.meta == nil {
			dstRow.n.meta = map[string]residentMeta{}
		}
		dstRow.n.meta[newName] = m
	}
	srcRow.sh.version++
	dstRow.sh.version++
	srcRow.n.version++
	dstRow.n.version++
	if capMove {
		s.capL.setNode(srcRow.n.cfg.Name, srcW)
		s.capL.setNode(dstRow.n.cfg.Name, dstW)
		// Re-anchor on the canonical whole-assignment estimate (the target
		// was priced via the addition path — last-ulp hazard vs a fresh
		// resync); a failure keeps the priced values.
		_ = srcRow.sh.resyncNodeCapLocked(ctx, srcRow.n)
		_ = dstRow.sh.resyncNodeCapLocked(ctx, dstRow.n)
	}
	s.journal([]wal.Event{
		{Type: wal.EvDeparted, Node: srcRow.n.cfg.Name, Name: cd.res.Name},
		{Type: wal.EvAdmitted, Node: dstRow.n.cfg.Name, Name: newName, Core: cd.dstCore,
			Bench: cd.res.Spec.Name, Tag: meta.tag, Priority: meta.priority},
	})
	return Move{
		From:        srcRow.n.cfg.Name,
		To:          dstRow.n.cfg.Name,
		Name:        cd.res.Name,
		NewName:     newName,
		Workload:    cd.res.Spec.Name,
		Core:        cd.dstCore,
		SPIBefore:   baseTotal,
		SPIAfter:    totals[best],
		Improvement: improvement,
	}, nil
}

// Recover reinstates a WAL-recovered state: residents and down markers
// route to their shards (each adopted in global admission order), the
// queue and ticket source to the sharded layer.
func (s *Sharded) Recover(ctx context.Context, st *wal.State) error {
	subs := make([]*wal.State, len(s.shards))
	for i := range subs {
		subs[i] = &wal.State{}
	}
	for _, name := range st.Down {
		si, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("fleet: %w %q in recovered state", ErrUnknownNode, name)
		}
		subs[si].Down = append(subs[si].Down, name)
	}
	for _, r := range st.Residents {
		si, ok := s.byName[r.Node]
		if !ok {
			return fmt.Errorf("fleet: %w %q in recovered state", ErrUnknownNode, r.Node)
		}
		subs[si].Residents = append(subs[si].Residents, r)
	}
	for name, rung := range st.Freq {
		si, ok := s.byName[name]
		if !ok {
			return fmt.Errorf("fleet: %w %q in recovered frequency state", ErrUnknownNode, name)
		}
		if subs[si].Freq == nil {
			subs[si].Freq = map[string]int{}
		}
		subs[si].Freq[name] = rung
	}
	for i, sh := range s.shards {
		if err := sh.Recover(ctx, subs[i]); err != nil {
			return err
		}
	}
	q := s.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.entries) > 0 {
		return errors.New("fleet: recover with a non-empty queue")
	}
	for _, qe := range st.Queue {
		spec := threads.ResolveSpec(qe.Bench)
		if spec == nil {
			return fmt.Errorf("fleet: recovered ticket %d names unknown workload %q", qe.Ticket, qe.Bench)
		}
		q.entries = append(q.entries, shardedQueued{spec: spec, tag: qe.Tag, ticket: qe.Ticket, priority: qe.Priority})
		// Credit the recovered entry as a submission so the queue ledger
		// balances from this process's first scrape.
		s.qSubmitted.Inc()
	}
	if st.Seq > q.seq {
		q.seq = st.Seq
	}
	return nil
}

// collectGauges mirrors Fleet.collectGauges across every shard plus the
// sharded queue depth and shard count.
func (s *Sharded) collectGauges(r *metrics.Registry) {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, n := range sh.nodes {
			if n.down {
				r.Gauge(fmt.Sprintf("fleet_machine_residents{node=%q}", n.cfg.Name)).Set(0)
				r.Gauge(fmt.Sprintf("fleet_machine_free_slots{node=%q}", n.cfg.Name)).Set(0)
				r.Gauge(fmt.Sprintf("fleet_machine_milliwatts{node=%q}", n.cfg.Name)).Set(0)
				continue
			}
			running := n.mgr.Running()
			count := 0
			for _, names := range running {
				count += len(names)
			}
			total += count
			r.Gauge(fmt.Sprintf("fleet_machine_residents{node=%q}", n.cfg.Name)).Set(int64(count))
			free := int64(-1)
			if n.cfg.MaxPerCore > 0 {
				free = int64(n.cfg.MaxPerCore*n.cfg.Machine.NumCores - count)
			}
			r.Gauge(fmt.Sprintf("fleet_machine_free_slots{node=%q}", n.cfg.Name)).Set(free)
			mw := int64(-1)
			if w, err := n.cm.EstimateAssignment(n.mgr.Assignment()); err == nil {
				mw = int64(freq.ScaleWatts(w, staticWatts(n), dynScaleOf(n)) * 1000)
			}
			r.Gauge(fmt.Sprintf("fleet_machine_milliwatts{node=%q}", n.cfg.Name)).Set(mw)
			if n.freqIx != n.cfg.Machine.Freq.BaseIx() {
				r.Gauge(fmt.Sprintf("fleet_machine_freq_state{node=%q}", n.cfg.Name)).Set(int64(n.freqIx + 1))
			}
		}
		sh.mu.Unlock()
	}
	r.Gauge("fleet_residents").Set(int64(total))
	r.Gauge("fleet_queue_depth").Set(int64(s.QueueDepth()))
	r.Gauge("fleet_machines").Set(int64(len(s.byName)))
	r.Gauge("fleet_shards").Set(int64(len(s.shards)))
	if cap := s.capL.capWatts(); cap > 0 {
		r.Gauge("fleet_power_cap_milliwatts").Set(int64(cap * 1000))
		r.Gauge("fleet_cap_usage_milliwatts").Set(int64(s.capL.usage() * 1000))
	}
}
