// Package fleet scales the paper's single-machine framework out to a
// cluster: a scheduler that owns N per-machine managers (heterogeneous
// machine presets allowed), admits arriving processes through a bounded
// queue, and scores every candidate (machine, core) slot with the paper's
// own models — predicted SPI degradation via the Section 3 equilibrium
// solver, predicted watts via the Eq. 9 MVLR — instead of load heuristics.
//
// The shape follows cluster schedulers like k8s-cluster-simulator (pending
// queue, per-node scoring, event loop); the substance is the paper's: an
// analytical model cheap enough to evaluate per placement decision is
// exactly what lets a fleet choose slots before running anything.
//
// Scope caveat: machines share nothing. Each node's predictions come from
// its own per-CMP equilibrium solve (the paper's single-machine framework,
// Sections 3–5); cross-machine interference — network, shared storage,
// rack power — is not modeled. Fleet-wide totals are plain sums of
// per-machine estimates.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"mpmc/internal/core"
	"mpmc/internal/freq"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/sched"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// Sentinel errors the serving layer maps onto typed responses.
var (
	// ErrFleetFull reports that no machine in the fleet has an admissible
	// core for the arrival.
	ErrFleetFull = errors.New("no admissible machine")
	// ErrQueueFull reports that the admission queue is at capacity (or
	// disabled) and cannot hold another pending arrival.
	ErrQueueFull = errors.New("admission queue full")
	// ErrUnknownNode reports an operation naming a node the fleet does not
	// own.
	ErrUnknownNode = errors.New("unknown node")
)

func errUnknownPolicy(p Policy) error {
	return fmt.Errorf("fleet: unknown policy %d", int(p))
}

// NodeConfig describes one machine in the fleet.
type NodeConfig struct {
	// Name is the node's unique identity ("m0", "rack1-a", ...). Empty
	// names default to "m<index>".
	Name string
	// Machine is the modeled CMP (required). Nodes may use heterogeneous
	// presets; feature vectors are profiled per machine kind.
	Machine *machine.Machine
	// Power is the node's trained Eq. 9 power model (required).
	Power *core.PowerModel
	// MaxPerCore bounds time-sharing depth on this node (0 = unbounded,
	// which also makes the node — and therefore the fleet — never full).
	MaxPerCore int
	// Labels are scheduler-visible key/value pairs for LabelMatch
	// predicates (Config.ExtraPredicates); nil is fine.
	Labels map[string]string
	// Taints lists taint keys. They are inert until a sched.Taint
	// predicate is added through Config.ExtraPredicates; then arrivals
	// must tolerate every key to land here.
	Taints []string
}

// Config assembles a Fleet.
type Config struct {
	// Nodes lists the machines (at least one).
	Nodes []NodeConfig
	// Policy selects the placement scoring policy.
	Policy Policy
	// BinPackCeiling is BinPack's relative SPI-degradation ceiling: a
	// machine is "full enough" once the arrival's best slot would degrade
	// total SPI by more than this fraction of the arrival's solo SPI
	// beyond the solo SPI itself (0 = the 0.25 default).
	BinPackCeiling float64
	// QueueCap bounds the admission queue (<= 0 disables queueing:
	// Submit always reports ErrQueueFull).
	QueueCap int
	// ExtraPredicates appends filters to the policy bundle's pipeline
	// (the bundle always starts with sched.NodeUp). Capacity predicates
	// (sched.FreeSlot, sched.PerCoreCap) prune full nodes before any
	// model solve — the scale configuration — and sched.Taint /
	// sched.LabelMatch enforce the node Labels/Taints.
	ExtraPredicates []sched.Predicate
	// MaxFeasible stops scoring after this many candidates survive the
	// predicates (0 = score everything). See sched.Pipeline.MaxFeasible.
	MaxFeasible int
	// PreemptMaxAttempts / PreemptMaxBackoff tune the preemption retry
	// ledger (0 = the sched.Ledger defaults: 3 attempts, 8-round backoff
	// cap). Preemption itself needs no switch: only arrivals with a
	// positive priority class ever preempt.
	PreemptMaxAttempts int
	PreemptMaxBackoff  int
	// Seed, Quick and Workers configure profiling exactly like the
	// single-machine server: per-workload seeds derive from Seed by name,
	// so vectors are reproducible and shared with the other front ends.
	Seed    uint64
	Quick   bool
	Workers int
	// CacheCap bounds the shared feature-vector LRU (0 = 256 entries).
	CacheCap int
	// PowerCap, when positive, is the fleet-wide watt budget: admissions
	// whose post-placement scaled estimate would push the fleet's total
	// draw above it are rejected (ErrFleetFull), and EnforceCap brings an
	// over-budget fleet back under by down-clocking or migrating. Zero
	// leaves the fleet uncapped (SetPowerCap can engage one later).
	PowerCap float64
	// ScoreCacheCap bounds the group-score memo and the shared equilibrium
	// solver state (0 = 4096 entries each; negative disables both, making
	// every scoring pass solve cold). Caching never changes any result —
	// values are pure functions of their content keys, so cold and cached
	// runs are byte-identical (the differential suite proves it) — it only
	// changes how often the equilibrium solver actually runs.
	ScoreCacheCap int
	// Profile overrides the profiling implementation (nil = core.Profile).
	Profile ProfileFunc
	// Registry receives the fleet metrics (nil = fresh registry).
	Registry *metrics.Registry
	// Journal, when non-nil, receives every completed mutation's events
	// as one batch, under the fleet lock, in commit order — the write-
	// ahead-log hook (internal/wal: one batch = one CRC-framed record, so
	// recovery replays whole operations or nothing). Rolled-back
	// operations emit nothing. Implementations must be fast and must not
	// call back into the fleet.
	Journal func(events []wal.Event)
	// Intercept, when non-nil, is consulted at named fault-injection
	// sites before the guarded operation runs; a non-nil return is
	// injected as that operation's error. It is the chaos-testing seam
	// (internal/chaos): sites are "fleet.profile" (key machine\x00bench,
	// inside the singleflight, so a burst of deduplicated callers all see
	// one injected failure), "fleet.score" (key node name, ahead of the
	// equilibrium solves), "fleet.rebalance" (ahead of the cross-machine
	// pass), and the per-node managers' sites with the node name prefixed
	// onto the key. Implementations must be safe for concurrent use and
	// cheap: the seam is consulted on hot paths.
	Intercept func(site, key string) error

	// sharedFeats/sharedScores/sharedSolver let a Sharded fleet hand its
	// shards one feature cache, score memo, and solver state: content-
	// addressed and concurrency-safe, so sharing them never changes any
	// value — it only avoids profiling one machine kind once per shard.
	sharedFeats  *featureCache
	sharedScores *scoreCache
	sharedSolver *core.SolverState
	// sharedCap hands every shard of a Sharded fleet ONE watt ledger, so
	// the cap is a fleet-wide budget: two shards racing the remaining
	// headroom serialize on the ledger's own lock.
	sharedCap *capLedger
}

// node pairs one machine's manager with its combined model, config and
// machine kind (the feature identity it shares with every node whose
// machine carries the same name).
type node struct {
	cfg  NodeConfig
	kind *machineKind
	mgr  *manager.Manager
	cm   *core.CombinedModel
	// down marks a lost machine (guarded by the fleet lock): placement,
	// rebalancing, and the model totals all skip it until RestoreNode.
	down bool
	// version counts this node's state changes (guarded by the fleet
	// lock): placements, departures, evictions, migrations, down/up,
	// re-clocks. Detached commits revalidate the WINNING node's stamp
	// only — a concurrent commit on another node never invalidates a
	// decision, which is what lets sharded placements on disjoint
	// machines land without re-scoring each other.
	version uint64
	// freqIx is the node's current rung on its machine's DVFS ladder
	// (guarded by the fleet lock; the base rung for machines without
	// one). Only setFreqLocked, FailNode (reboot-to-base), recovery, and
	// the EnforceCap transaction move it.
	freqIx int

	// asgSnap caches the manager's deep-copied assignment (and asgSuffix
	// the decision-key bytes derived from it), re-read only when the
	// manager's mutation version moves — Assignment() rebuilds per-core
	// slices on every call, which dominated the warm placement path.
	// The snapshot is read-only by contract: every scoring path copies
	// on write (withAdditionShared, withoutResident). Writes happen under
	// the fleet lock, or in fan-out workers that each own one node index
	// with the fleet lock held by their caller.
	asgVersion uint64
	asgSnap    core.Assignment
	asgSuffix  string
	// keyFeat/keyStr are a one-entry cache of the last decision key built
	// for this node (an arrival stream repeats the same workload against
	// an unchanged node); invalidated whenever asgSuffix is rebuilt.
	keyFeat *core.FeatureVector
	keyStr  string

	// meta tracks scheduler-side facts about residents the node manager
	// does not know: priority class and the submitter's tag (a preempted
	// victim is requeued under both). Keyed by instance name, allocated
	// lazily — legacy flows that never tag or prioritize leave it nil.
	meta map[string]residentMeta
}

// residentMeta is the fleet-side record of one placed instance. key is
// the preemption ledger identity (assigned at first preemption, carried
// through requeue and readmission so repeat preemptions of the same
// logical process escalate its backoff).
type residentMeta struct {
	spec     *workload.Spec
	tag      string
	priority int
	key      string
}

// assignmentOf returns n's current assignment through the per-node
// snapshot cache. Callers must hold the fleet lock (or be the only
// worker touching n under a caller holding it) and must not mutate the
// result.
func (f *Fleet) assignmentOf(n *node) core.Assignment {
	if v := n.mgr.Version(); v != n.asgVersion || n.asgSnap == nil {
		n.asgSnap = n.mgr.Assignment()
		n.asgSuffix = ""
		n.asgVersion = v
	}
	return n.asgSnap
}

// decisionKeyOf builds the decision-memo key from the cached assignment
// suffix: one small concatenation instead of a full walk per probe.
func (f *Fleet) decisionKeyOf(n *node, feat *core.FeatureVector) string {
	asg := f.assignmentOf(n)
	if n.asgSuffix == "" {
		n.asgSuffix = decisionSuffix(asg)
		n.keyFeat = nil
	}
	if feat != n.keyFeat {
		n.keyFeat, n.keyStr = feat, n.cfg.Name+"\x00"+feat.Name+n.asgSuffix
		if ix := n.freqIx; ix != n.cfg.Machine.Freq.BaseIx() {
			// Off-base decisions depend on the rung (the frequency-aware
			// policies price SPI/watts at it); base-state keys carry zero
			// extra bytes so legacy memo keys are unchanged.
			n.keyStr += "\x03" + strconv.Itoa(ix)
		}
	}
	return n.keyStr
}

// Fleet is the cluster scheduler. All methods are safe for concurrent
// use: a single fleet lock serializes placement, queue, and rebalancing
// decisions (scoring included, so every decision sees a consistent
// cluster state), while profiling sweeps run outside it through the
// shared singleflight cache.
type Fleet struct {
	cfg   Config
	nodes []*node
	feats *featureCache
	// scores memoizes per-group SPI terms and solver the underlying
	// equilibrium solutions; both nil when ScoreCacheCap < 0 (cold mode).
	scores *scoreCache
	solver *core.SolverState
	// capL is the power-cap ledger (nil until a cap is configured or set;
	// shared across shards in a Sharded fleet). It has its own lock.
	capL *capLedger
	reg  *metrics.Registry

	// pipe is the policy bundle every placement decides through; built
	// once in New (immutable afterwards).
	pipe *bundle
	// solves counts executed cache-group equilibrium solves (groupEstimate
	// passes that read SPI; memo hits excluded). See SolverInvocations.
	solves atomic.Uint64

	mu sync.Mutex
	// cands/candPtrs are candidatesLocked's reusable buffers and feasible
	// feasibleLocked's (guarded by mu; refreshed per placement).
	cands    []sched.CandidateNode
	candPtrs []*sched.CandidateNode
	feasible []int
	rrNode   int // Spread's machine rotation cursor
	queue    []queued
	seq      int // ticket source
	// ledger tracks preemption requeues: exponential backoff per victim
	// key, drop after the attempt budget. pumpRound is the round clock
	// backoff is measured on (one tick per queue pump).
	ledger    sched.Ledger
	pumpRound int
	// version stamps the fleet's placement state: bumped (under mu) by
	// every mutation that can change a scoring outcome — commits,
	// removals, node fail/restore, rebalance moves, recovery. Detached
	// scoring captures it with the view and re-validates at commit time:
	// an unchanged version proves the scored snapshot is still current.
	version uint64
	// jbuf accumulates the current operation's journal events (guarded by
	// mu); flushJournalLocked hands the batch to cfg.Journal, rollbacks
	// discard it.
	jbuf []wal.Event

	placed     *metrics.Counter
	rejected   *metrics.Counter
	rollbacks  *metrics.Counter
	qSubmitted *metrics.Counter
	qAdmitted  *metrics.Counter
	qRejected  *metrics.Counter
	qAbandoned *metrics.Counter
	qDropped   *metrics.Counter
	moves      *metrics.Counter
	noops      *metrics.Counter
}

// queued is one pending arrival: the workload, the caller's tag (the sim
// uses it to map admissions back to trace processes), the FIFO ticket
// CancelQueued takes, the priority class, and the ledger key backoff
// eligibility is tracked under (empty for never-preempted entries).
type queued struct {
	spec     *workload.Spec
	tag      string
	ticket   int
	priority int
	key      string
	// pumping marks an entry whose placement is being scored outside the
	// lock. CancelQueued may still remove it — cancellation wins, the
	// pump's commit-time revalidation finds the ticket gone and never
	// places it — which is what makes CancelQueued's true unambiguous.
	pumping bool
}

// New validates cfg, applies defaults, and assembles the fleet.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: no nodes configured")
	}
	if cfg.BinPackCeiling == 0 {
		cfg.BinPackCeiling = 0.25
	}
	if cfg.BinPackCeiling < 0 {
		return nil, fmt.Errorf("fleet: negative BinPackCeiling %v", cfg.BinPackCeiling)
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 256
	}
	if cfg.Profile == nil {
		cfg.Profile = core.Profile
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.ScoreCacheCap == 0 {
		cfg.ScoreCacheCap = 4096
	}
	seen := map[string]bool{}
	f := &Fleet{cfg: cfg, reg: cfg.Registry}
	if cfg.sharedFeats != nil {
		f.feats = cfg.sharedFeats
	} else {
		f.feats = newFeatureCache(cfg, f.reg)
	}
	if cfg.sharedScores != nil {
		f.scores, f.solver = cfg.sharedScores, cfg.sharedSolver
	} else if cfg.ScoreCacheCap > 0 {
		f.scores = newScoreCache(cfg.ScoreCacheCap, cfg.Intercept)
		f.solver = core.NewSolverState(cfg.ScoreCacheCap)
	}
	for i := range cfg.Nodes {
		nc := cfg.Nodes[i]
		if nc.Name == "" {
			nc.Name = fmt.Sprintf("m%d", i)
		}
		if seen[nc.Name] {
			return nil, fmt.Errorf("fleet: duplicate node name %q", nc.Name)
		}
		seen[nc.Name] = true
		if nc.Machine == nil {
			return nil, fmt.Errorf("fleet: node %q has no machine", nc.Name)
		}
		if err := nc.Machine.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: node %q: %w", nc.Name, err)
		}
		if nc.MaxPerCore < 0 {
			return nil, fmt.Errorf("fleet: node %q: negative MaxPerCore", nc.Name)
		}
		if nc.Power == nil {
			return nil, fmt.Errorf("fleet: node %q has no power model", nc.Name)
		}
		kind, err := f.feats.kindOf(nc.Name, nc.Machine)
		if err != nil {
			return nil, err
		}
		var intercept func(site, key string) error
		if cfg.Intercept != nil {
			// Prefix the node identity so an injector can target one
			// machine's commits without a separate seam per node.
			ic, name := cfg.Intercept, nc.Name
			intercept = func(site, key string) error {
				if key == "" {
					return ic(site, name)
				}
				return ic(site, name+"/"+key)
			}
		}
		mgr := manager.New(nc.Machine, nc.Power, manager.Options{
			// The node manager's own policy is never exercised: the fleet
			// scores slots itself and commits with PlaceAt.
			Policy:      manager.PowerAware,
			MaxPerCore:  nc.MaxPerCore,
			Features:    nodeSource{fc: f.feats, k: kind},
			Intercept:   intercept,
			SolverState: f.solver,
		})
		cm := core.NewCombinedModel(nc.Machine, nc.Power)
		cm.State = f.solver
		f.nodes = append(f.nodes, &node{
			cfg:    nc,
			kind:   kind,
			mgr:    mgr,
			cm:     cm,
			freqIx: nc.Machine.Freq.BaseIx(),
		})
	}
	if cfg.PowerCap < 0 {
		return nil, fmt.Errorf("fleet: negative PowerCap %v", cfg.PowerCap)
	}
	if cfg.sharedCap != nil {
		f.capL = cfg.sharedCap
	} else if cfg.PowerCap > 0 {
		f.capL = newCapLedger()
		f.capL.setCap(cfg.PowerCap)
	}
	if f.capL != nil {
		// An empty node's Eq. 10 estimate is exactly its static floor —
		// per-core idle intercepts — so seeding the ledger needs no solve.
		for _, n := range f.nodes {
			f.capL.setNode(n.cfg.Name, staticWatts(n))
		}
	}
	if cfg.MaxFeasible < 0 {
		return nil, fmt.Errorf("fleet: negative MaxFeasible %d", cfg.MaxFeasible)
	}
	pipe, err := newBundle(f)
	if err != nil {
		return nil, err
	}
	f.pipe = pipe
	f.ledger.MaxAttempts = cfg.PreemptMaxAttempts
	f.ledger.MaxBackoff = cfg.PreemptMaxBackoff
	f.placed = f.reg.Counter("fleet_place_total")
	f.rejected = f.reg.Counter("fleet_place_rejected_total")
	f.rollbacks = f.reg.Counter("fleet_place_rollback_total")
	f.qSubmitted = f.reg.Counter("fleet_queue_submitted_total")
	f.qAdmitted = f.reg.Counter("fleet_queue_admitted_total")
	f.qRejected = f.reg.Counter("fleet_queue_rejected_total")
	f.qAbandoned = f.reg.Counter("fleet_queue_abandoned_total")
	f.qDropped = f.reg.Counter("fleet_queue_dropped_total")
	f.moves = f.reg.Counter("fleet_rebalance_moves_total")
	f.noops = f.reg.Counter("fleet_rebalance_noop_total")
	f.reg.OnCollect(f.collectGauges)
	return f, nil
}

// Registry returns the metrics registry the fleet reports into.
func (f *Fleet) Registry() *metrics.Registry { return f.reg }

// Policy returns the active placement policy.
func (f *Fleet) Policy() Policy { return f.cfg.Policy }

// NodeNames lists the node identities in index order.
func (f *Fleet) NodeNames() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.cfg.Name
	}
	return out
}

// Placed records one admitted instance: the node it landed on, the
// instance name the node's manager assigned, the chosen core, the
// machine's estimated watts after the placement, and the policy score of
// the winning slot (0 under Spread, which never scores; NaN would not
// survive JSON encoding).
type Placed struct {
	Node  string  `json:"node"`
	Name  string  `json:"name"`
	Core  int     `json:"core"`
	Watts float64 `json:"watts"`
	Score float64 `json:"score"`

	// Tag echoes the Submit tag when the instance was admitted from the
	// queue (empty for direct placements).
	Tag string `json:"-"`

	// Preempted reports the resident this placement evicted, when the
	// arrival's priority class forced a preemption (nil otherwise — in
	// particular for every priority-0 placement, so legacy transcripts
	// are unchanged). A victim is never dropped silently: it is either
	// requeued through the admission queue or reported here with
	// Requeued false.
	Preempted *PreemptedInfo `json:"preempted,omitempty"`
}

// PreemptedInfo identifies a preemption victim and its disposition.
type PreemptedInfo struct {
	// Node and Name locate the evicted instance; Workload names its spec.
	Node     string `json:"node"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Tag is the victim's original submission tag (requeues keep it).
	Tag string `json:"tag,omitempty"`
	// Priority is the victim's priority class.
	Priority int `json:"priority,omitempty"`
	// Requeued is true when the victim re-entered the admission queue;
	// false when the retry ledger's attempt budget was exhausted or the
	// queue could not hold it (the drop is counted either way).
	Requeued bool `json:"requeued"`
	// Ticket is the victim's new queue ticket when Requeued (it cancels
	// the requeued entry exactly like a Submit ticket would).
	Ticket int `json:"ticket,omitempty"`
}

// PlaceOptions carries the scheduler-side facts of one arrival that are
// not part of the workload itself.
type PlaceOptions struct {
	// Tag is an opaque caller identity echoed on the Placed and preserved
	// across preemption requeues (the simulator maps placements back to
	// trace processes with it).
	Tag string
	// Priority is the arrival's priority class. Positive classes may
	// preempt residents of strictly lower classes when no candidate
	// survives the pipeline; class 0 (every legacy caller) never preempts
	// and is what everything else may preempt.
	Priority int
	// Tolerations lists taint keys the arrival accepts (consulted only
	// when a sched.Taint predicate is configured).
	Tolerations map[string]bool

	// ticket threads a pumped queue entry's ticket into the journal's
	// admitted event, so replay consumes the matching queue entry. Zero
	// for direct placements.
	ticket int
}

// Place admits one arrival at the policy's best slot. A single placement
// is atomic by construction (scoring mutates nothing; the commit either
// happens wholly or not at all), so no snapshot is needed.
func (f *Fleet) Place(ctx context.Context, spec *workload.Spec) (Placed, error) {
	return f.PlaceWith(ctx, spec, PlaceOptions{})
}

// PlaceWith is Place with explicit scheduling options (tag, priority
// class, taint tolerations).
func (f *Fleet) PlaceWith(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error) {
	if err := f.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
		return Placed{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p, err := f.placeOneLocked(ctx, spec, opts)
	if err != nil {
		f.discardJournalLocked()
		if errors.Is(err, ErrFleetFull) {
			f.rejected.Inc()
		}
		return Placed{}, err
	}
	f.placed.Inc()
	f.flushJournalLocked()
	return p, nil
}

// PlaceAll admits a batch of arrivals transactionally: either every
// instance is admitted, or every machine's resident set, instance-name
// counter, and the fleet's round-robin cursor are restored to their
// pre-call state and the error reports why (the cause stays reachable
// with errors.Is).
func (f *Fleet) PlaceAll(ctx context.Context, specs []*workload.Spec) ([]Placed, error) {
	if err := f.feats.resolve(ctx, specs); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// A one-spec batch commits nothing before its only fallible step (see
	// Place), so there is nothing a snapshot could restore.
	var snaps []*manager.Snapshot
	var rungs []int
	if len(specs) > 1 {
		snaps, rungs = make([]*manager.Snapshot, len(f.nodes)), make([]int, len(f.nodes))
		for i, n := range f.nodes {
			snaps[i], rungs[i] = n.mgr.Snapshot(), n.freqIx
		}
	}
	snapRR := f.rrNode
	admitted := 0
	rollback := func(cause error) error {
		for i := range snaps {
			n := f.nodes[i]
			n.mgr.Restore(snaps[i])
			if n.freqIx != rungs[i] {
				n.freqIx = rungs[i]
				n.keyFeat, n.keyStr = nil, ""
			}
		}
		f.rrNode = snapRR
		if snaps != nil && f.capActive() {
			// Committed reservations from the rolled-back prefix are undone
			// by re-syncing every row against the restored managers.
			for _, n := range f.nodes {
				_ = f.resyncNodeCapLocked(ctx, n)
			}
		}
		// Rolled-back placements must leave no trace in the journal (the
		// version stamp stays bumped — a spurious conflict is harmless,
		// a missed one is not).
		f.discardJournalLocked()
		if errors.Is(cause, ErrFleetFull) {
			f.rejected.Inc()
		}
		if admitted > 0 {
			f.rollbacks.Inc()
			return fmt.Errorf("fleet: batch rolled back after %d placement(s): %w", admitted, cause)
		}
		return cause
	}
	out := make([]Placed, len(specs))
	for i, s := range specs {
		if err := ctx.Err(); err != nil {
			return nil, rollback(err)
		}
		p, err := f.placeOneLocked(ctx, s, PlaceOptions{})
		if err != nil {
			return nil, rollback(err)
		}
		admitted++
		out[i] = p
	}
	f.placed.Add(uint64(len(out)))
	f.flushJournalLocked()
	return out, nil
}

// placeOneLocked runs the policy pipeline for one arrival and commits the
// winning slot; when nothing survives and the arrival outranks a
// resident, it escalates to preemption.
func (f *Fleet) placeOneLocked(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error) {
	p, err := f.decideAndCommitLocked(ctx, spec, opts)
	if err != nil && errors.Is(err, ErrFleetFull) && opts.Priority > 0 {
		if pp, ok, perr := f.preemptLocked(ctx, spec, opts); perr != nil {
			return Placed{}, perr
		} else if ok {
			return pp, nil
		}
	}
	return p, err
}

// decideAndCommitLocked decides one arrival through the policy bundle and
// commits the winner: the predicates prune, scoreFeasible scores the
// survivors (memo probes on this goroutine, only the misses fanned out),
// and the selector reduces serially in node order, so ties always resolve
// to the lowest node index at any worker count. Spread scores nothing the
// memo or the model could answer and runs the plain pipeline.
func (f *Fleet) decideAndCommitLocked(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error) {
	arr := arrivalOf(spec, opts)
	best, score := -1, nodeScore{}
	if f.cfg.Policy == Spread {
		dec, err := f.pipe.pipe.Decide(ctx, arr, f.candidatesLocked(), nil)
		if err != nil {
			return Placed{}, err
		}
		best, score = dec.Node, dec.Score
	} else {
		f.feasible = f.feasibleLocked(arr, f.feasible[:0])
		scores, err := f.scoreFeasible(ctx, spec, f.feasible, nil)
		if err != nil {
			return Placed{}, err
		}
		if pick := f.pipe.pipe.Selector().Pick(scores); pick >= 0 {
			best, score = f.feasible[pick], scores[pick]
		}
	}
	if best < 0 {
		return Placed{}, fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name)
	}
	return f.commitLocked(ctx, spec, opts, best, score)
}

// commitLocked commits one decided slot through its node manager and
// records the arrival's scheduler-side metadata. When the score carries
// a frequency target (the frequency-aware policies), the node is
// re-clocked as part of the commit; when a power cap is active, the
// node's post-placement scaled draw is reserved in the watt ledger
// BEFORE the manager mutates — a failed reservation surfaces as
// ErrFleetFull with the cluster untouched.
func (f *Fleet) commitLocked(ctx context.Context, spec *workload.Spec, opts PlaceOptions, best int, s nodeScore) (Placed, error) {
	n := f.nodes[best]
	tgt := n.freqIx
	if s.Freq > 0 {
		tgt = s.Freq - 1
	}
	capOld, capHeld := 0.0, false
	if f.capActive() {
		feat, err := f.feats.get(ctx, n.kind, spec)
		if err != nil {
			return Placed{}, err
		}
		w, err := n.cm.EstimateAdditionContext(ctx, f.assignmentOf(n), feat, s.Core)
		if err != nil {
			return Placed{}, err
		}
		d := freq.DynScaleAt(n.cfg.Machine.Core, n.cfg.Machine.Freq.State(tgt))
		scaled := freq.ScaleWatts(w, staticWatts(n), d)
		capOld = f.capL.nodeWatts(n.cfg.Name)
		if !f.capL.tryReserve(n.cfg.Name, scaled) {
			return Placed{}, fmt.Errorf("fleet: %w for %s: placing on %s would draw %.6g W against the %.6g W cap",
				ErrFleetFull, spec.Name, n.cfg.Name,
				f.capL.usedExcept(n.cfg.Name)+scaled, f.capL.capWatts())
		}
		capHeld = true
	}
	name, watts, err := n.mgr.PlaceAt(ctx, spec, s.Core)
	if err != nil {
		if capHeld {
			f.capL.setNode(n.cfg.Name, capOld)
		}
		return Placed{}, err
	}
	if tgt != n.freqIx {
		f.setFreqLocked(n, tgt)
	}
	if capHeld {
		// The reservation priced the addition prospectively (the atomic
		// admission gate); re-anchor the row on the canonical
		// whole-assignment estimate so the ledger is bit-identical to what
		// a fresh resync — recovery, enforcement — derives. A failure keeps
		// the reservation's value, equal up to the last ulp.
		_ = f.resyncNodeCapLocked(ctx, n)
	}
	if opts.Tag != "" || opts.Priority != 0 {
		if n.meta == nil {
			n.meta = map[string]residentMeta{}
		}
		n.meta[name] = residentMeta{spec: spec, tag: opts.Tag, priority: opts.Priority}
	}
	score := s.Value
	if f.pipe.zeroScore {
		score = 0
	}
	if f.pipe.advance {
		f.rrNode = (best + 1) % len(f.nodes)
	}
	f.version++
	n.version++
	f.journalLocked(wal.Event{
		Type: wal.EvAdmitted, Node: n.cfg.Name, Name: name, Core: s.Core,
		Bench: spec.Name, Tag: opts.Tag, Priority: opts.Priority, Ticket: opts.ticket,
	})
	// Identity-gated: a base-state out-of-order node reports the exact
	// legacy float64.
	watts = freq.ScaleWatts(watts, staticWatts(n), dynScaleOf(n))
	return Placed{Node: n.cfg.Name, Name: name, Core: s.Core, Watts: watts, Score: score}, nil
}

// Submit enqueues an arrival the fleet cannot place right now. tag is an
// opaque caller identity echoed on the eventual Placed (the simulator maps
// admissions back to trace processes with it). The returned ticket cancels
// the submission. FIFO order is strict: queued arrivals are admitted
// oldest first, and a head that still does not fit blocks the rest
// (head-of-line blocking keeps admission order deterministic and fair).
func (f *Fleet) Submit(spec *workload.Spec, tag string) (int, error) {
	return f.SubmitWith(spec, tag, 0)
}

// SubmitWith is Submit with a priority class: the entry is pumped ahead
// of every lower class (FIFO within its own), and pumping it may preempt
// lower-priority residents when the fleet is full.
func (f *Fleet) SubmitWith(spec *workload.Spec, tag string, priority int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.QueueCap <= 0 || len(f.queue) >= f.cfg.QueueCap {
		f.qRejected.Inc()
		return 0, fmt.Errorf("fleet: %w (cap %d) for %s", ErrQueueFull, f.cfg.QueueCap, spec.Name)
	}
	f.seq++
	f.queue = append(f.queue, queued{spec: spec, tag: tag, ticket: f.seq, priority: priority})
	f.qSubmitted.Inc()
	f.journalLocked(wal.Event{Type: wal.EvSubmitted, Bench: spec.Name, Tag: tag, Priority: priority, Ticket: f.seq})
	f.flushJournalLocked()
	return f.seq, nil
}

// CancelQueued withdraws a pending submission (the simulator's "process
// departed before it was ever placed"). It reports whether the ticket was
// still queued — and true is unambiguous: an entry the pump is scoring
// outside the lock is still cancellable, because the pump revalidates the
// ticket under this same lock before committing and a cancelled entry is
// never placed.
func (f *Fleet) CancelQueued(ticket int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, q := range f.queue {
		if q.ticket == ticket {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			if q.key != "" {
				f.ledger.Forget(q.key)
			}
			f.qAbandoned.Inc()
			f.journalLocked(wal.Event{Type: wal.EvCancelled, Ticket: ticket})
			f.flushJournalLocked()
			return true
		}
	}
	return false
}

// QueueDepth returns the number of pending arrivals.
func (f *Fleet) QueueDepth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

// QueuedEntry is one pending arrival's scheduler-visible facts.
type QueuedEntry struct {
	Workload string
	Tag      string
	Ticket   int
	Priority int
	// Eligible reports whether the entry may be tried at the next pump
	// (false while a preemption backoff is still running).
	Eligible bool
}

// QueuedInfo snapshots the admission queue in queue order. The chaos
// invariants read it to prove victims are requeued, never dropped
// silently, and that no eligible entry outranks a resident after a pump.
func (f *Fleet) QueuedInfo() []QueuedEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]QueuedEntry, len(f.queue))
	for i, q := range f.queue {
		out[i] = QueuedEntry{
			Workload: q.spec.Name,
			Tag:      q.tag,
			Ticket:   q.ticket,
			Priority: q.priority,
			Eligible: q.key == "" || f.ledger.Eligible(q.key, f.pumpRound+1),
		}
	}
	return out
}

// Pump tries to admit queued arrivals in admission order (highest
// priority class first, FIFO within a class), stopping at the first head
// that still does not fit anywhere. A head failing for any reason other
// than a full fleet is dropped (and counted) rather than wedging the
// queue. Returns the admissions, tags attached.
//
// For model-scoring policies the equilibrium solves run *outside* the
// fleet lock against a version-stamped view: Submit, CancelQueued,
// QueueDepth, and State are never blocked behind a scoring pass, and a
// commit only lands when the fleet state is provably unchanged since the
// view was captured (otherwise the head is re-scored — same decision a
// fresh in-lock pass would make). A cancelled context returns with every
// unplaced entry still queued: nothing is ever dropped between dequeue
// and commit, so shutdown loses no submissions.
func (f *Fleet) Pump(ctx context.Context) ([]Placed, error) {
	// Resolve features for the current queue outside the lock first.
	f.mu.Lock()
	pending := make([]*workload.Spec, len(f.queue))
	for i, q := range f.queue {
		pending[i] = q.spec
	}
	f.mu.Unlock()
	if err := f.feats.resolve(ctx, pending); err != nil {
		return nil, err
	}
	if f.cfg.Policy == Spread {
		// Spread scores nothing (its rotation cursor is read during the
		// decision, so there is no coherent detached view) — the in-lock
		// pump holds the lock only for map probes.
		f.mu.Lock()
		defer f.mu.Unlock()
		out, err := f.pumpLocked(ctx)
		f.flushJournalLocked()
		return out, err
	}
	return f.pumpDetached(ctx)
}

// pumpLocked is the in-lock pump loop (queue cascades under Remove and
// RestoreNode, and the Spread policy). Callers flush the journal.
func (f *Fleet) pumpLocked(ctx context.Context) ([]Placed, error) {
	f.pumpRound++
	var out []Placed
	for len(f.queue) > 0 {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		head := f.headLocked()
		if head < 0 {
			break
		}
		q := f.queue[head]
		p, err := f.placeOneLocked(ctx, q.spec, PlaceOptions{Tag: q.tag, Priority: q.priority, ticket: q.ticket})
		if errors.Is(err, ErrFleetFull) {
			break
		}
		if err != nil {
			f.dropQueuedLocked(head, q)
			continue
		}
		f.queue = append(f.queue[:head], f.queue[head+1:]...)
		f.admitQueuedLocked(&p, q)
		out = append(out, p)
	}
	return out, nil
}

// headLocked picks the next pumpable entry: highest priority class first,
// FIFO (ticket order) within a class — for the all-class-0 legacy queue
// that is exactly oldest-first. Entries still serving a preemption
// backoff are skipped, not blocking; everything else keeps the strict
// head-of-line contract. Returns -1 when nothing is eligible.
func (f *Fleet) headLocked() int {
	head := -1
	for i, q := range f.queue {
		if q.key != "" && !f.ledger.Eligible(q.key, f.pumpRound) {
			continue
		}
		if head < 0 || q.priority > f.queue[head].priority {
			head = i
		}
	}
	return head
}

// ticketIndexLocked finds a queue entry by ticket (-1 when gone).
func (f *Fleet) ticketIndexLocked(ticket int) int {
	for i, q := range f.queue {
		if q.ticket == ticket {
			return i
		}
	}
	return -1
}

// dropQueuedLocked discards queue entry i after a non-capacity placement
// failure and journals the drop.
func (f *Fleet) dropQueuedLocked(i int, q queued) {
	f.queue = append(f.queue[:i], f.queue[i+1:]...)
	f.qDropped.Inc()
	f.journalLocked(wal.Event{Type: wal.EvDropped, Ticket: q.ticket})
}

// admitQueuedLocked records a queue entry's successful admission: the
// preemption-ledger key re-attaches to the new instance (attempts
// escalate across repeat preemptions of the same logical process; only a
// clean exit discharges them), the tag is echoed, and the counters move.
func (f *Fleet) admitQueuedLocked(p *Placed, q queued) {
	if q.key != "" {
		f.attachKeyLocked(*p, q)
	}
	p.Tag = q.tag
	f.placed.Inc()
	f.qAdmitted.Inc()
}

// pumpDetached is the scoring-policy pump loop: capture a consistent view
// of the fleet under the lock, score it detached, then revalidate the
// version stamp (and the entry's continued existence — cancellation wins)
// before committing under the lock again.
func (f *Fleet) pumpDetached(ctx context.Context) ([]Placed, error) {
	var out []Placed
	first := true
	for {
		f.mu.Lock()
		if err := ctx.Err(); err != nil {
			// Shutdown contract: an entry is only removed after its commit
			// succeeded, so everything not yet admitted is still queued.
			f.flushJournalLocked()
			f.mu.Unlock()
			return out, err
		}
		if first {
			f.pumpRound++
			first = false
		}
		head := f.headLocked()
		if head < 0 {
			f.flushJournalLocked()
			f.mu.Unlock()
			return out, nil
		}
		q := f.queue[head]
		view, err := f.captureViewLocked(ctx, q.spec, PlaceOptions{Priority: q.priority})
		if err != nil {
			f.dropQueuedLocked(head, q)
			f.flushJournalLocked()
			f.mu.Unlock()
			continue
		}
		f.queue[head].pumping = true
		f.mu.Unlock()

		scores, serr := f.scoreViewDetached(ctx, view, q.spec)
		pick := -1
		if serr == nil {
			pick = f.pipe.pipe.Selector().Pick(scores)
		}

		f.mu.Lock()
		idx := f.ticketIndexLocked(q.ticket)
		if idx < 0 {
			// Cancelled (or failed over) while scoring: nothing committed,
			// nothing to do — CancelQueued's true stays truthful.
			f.mu.Unlock()
			continue
		}
		f.queue[idx].pumping = false
		if serr != nil {
			f.dropQueuedLocked(idx, q)
			f.flushJournalLocked()
			f.mu.Unlock()
			continue
		}
		if pick >= 0 && f.nodes[pick].version != view.vers[pick] {
			// The winning node changed while scoring; its score is stale.
			// Re-score — the fresh pass sees exactly what an in-lock pump
			// would have. Changes on OTHER nodes don't invalidate: the
			// winner's score is still exact, and the selection races the
			// same way concurrent arrivals always have.
			f.mu.Unlock()
			continue
		}
		if pick < 0 && f.version != view.ver {
			// "Nowhere fits" is a fleet-wide claim: any mutation anywhere
			// (a departure may have freed capacity) invalidates it.
			f.mu.Unlock()
			continue
		}
		opts := PlaceOptions{Tag: q.tag, Priority: q.priority, ticket: q.ticket}
		if pick < 0 {
			if q.priority > 0 {
				pp, ok, perr := f.preemptLocked(ctx, q.spec, opts)
				if perr != nil {
					f.discardJournalLocked()
					f.dropQueuedLocked(idx, q)
					f.flushJournalLocked()
					f.mu.Unlock()
					continue
				}
				if ok {
					f.queue = append(f.queue[:idx], f.queue[idx+1:]...)
					f.admitQueuedLocked(&pp, q)
					f.flushJournalLocked()
					f.mu.Unlock()
					out = append(out, pp)
					continue
				}
			}
			// Nowhere fits: the head blocks the queue (strict head-of-line).
			f.flushJournalLocked()
			f.mu.Unlock()
			return out, nil
		}
		p, err := f.commitLocked(ctx, q.spec, opts, pick, scores[pick])
		if err != nil {
			f.discardJournalLocked()
			f.dropQueuedLocked(idx, q)
			f.flushJournalLocked()
			f.mu.Unlock()
			continue
		}
		f.queue = append(f.queue[:idx], f.queue[idx+1:]...)
		f.admitQueuedLocked(&p, q)
		f.flushJournalLocked()
		f.mu.Unlock()
		out = append(out, p)
	}
}

// journalLocked stages one event onto the current operation's batch
// (free when no journal is configured).
func (f *Fleet) journalLocked(e wal.Event) {
	if f.cfg.Journal == nil {
		return
	}
	f.jbuf = append(f.jbuf, e)
}

// flushJournalLocked hands the staged batch to the journal as one atomic
// record and resets the buffer.
func (f *Fleet) flushJournalLocked() {
	if len(f.jbuf) == 0 {
		return
	}
	f.cfg.Journal(f.jbuf)
	f.jbuf = f.jbuf[:0]
}

// discardJournalLocked drops staged events after a rollback: a rolled-
// back operation must leave no trace in the log.
func (f *Fleet) discardJournalLocked() {
	f.jbuf = f.jbuf[:0]
}

// attachKeyLocked re-binds a requeued victim's ledger key (and original
// tag/priority, for entries commitLocked had no reason to record) to the
// freshly admitted instance.
func (f *Fleet) attachKeyLocked(p Placed, q queued) {
	n := f.nodeByNameLocked(p.Node)
	if n == nil {
		return
	}
	if n.meta == nil {
		n.meta = map[string]residentMeta{}
	}
	m := n.meta[p.Name]
	m.spec, m.tag, m.priority, m.key = q.spec, q.tag, q.priority, q.key
	n.meta[p.Name] = m
}

// Remove evicts the named instance from the named node (process exit) and
// then pumps the admission queue into the freed capacity, returning any
// admissions that resulted.
func (f *Fleet) Remove(ctx context.Context, nodeName, instance string) ([]Placed, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodeByNameLocked(nodeName)
	if n == nil {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, nodeName)
	}
	if err := n.mgr.Remove(instance); err != nil {
		return nil, err
	}
	f.version++
	n.version++
	f.journalLocked(wal.Event{Type: wal.EvDeparted, Node: nodeName, Name: instance})
	if m, ok := n.meta[instance]; ok {
		// A clean exit discharges the preemption ledger: the next life of
		// this workload starts with a fresh backoff budget.
		if m.key != "" {
			f.ledger.Forget(m.key)
		}
		delete(n.meta, instance)
	}
	if f.capActive() {
		// A stale (over-stated) row is the safe failure direction; the next
		// sync heals it, so an estimate error here never blocks a departure.
		_ = f.resyncNodeCapLocked(ctx, n)
	}
	// The departure and its queue cascade are one operation batch: replay
	// lands on the post-cascade state, never between.
	out, err := f.pumpLocked(ctx)
	f.flushJournalLocked()
	return out, err
}

// FailNode simulates losing a machine: the node is marked down — placement,
// rebalancing, and the model totals all skip it — and every resident is
// evicted (processes die with their machine; the fleet does not pretend a
// lost process can be live-migrated). The evicted residents are returned in
// deterministic core/arrival order so the caller can resubmit or account
// for them. Queued arrivals are untouched: they were never bound to a node.
func (f *Fleet) FailNode(name string) ([]manager.Resident, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodeByNameLocked(name)
	if n == nil {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, name)
	}
	if n.down {
		return nil, fmt.Errorf("fleet: node %q is already down", name)
	}
	n.down = true
	// Drop the dead machine's memoized group scores before evicting: the
	// eviction empties its groups, and the pre-fail keys would otherwise
	// linger until the LRU ages them out.
	f.invalidateNodeLocked(n)
	evicted := n.mgr.Residents()
	for _, r := range evicted {
		if err := n.mgr.Remove(r.Name); err != nil {
			// Residents() just listed it under the same lock; Remove can
			// only fail on a name that is not resident.
			return nil, fmt.Errorf("fleet: evicting %s from %s: %w", r.Name, name, err)
		}
	}
	for _, m := range n.meta {
		if m.key != "" {
			f.ledger.Forget(m.key)
		}
	}
	n.meta = nil
	// A dead machine draws nothing, and it reboots at its base rung —
	// replay of EvNodeDown resets both, so no extra event is needed.
	if ix := n.cfg.Machine.Freq.BaseIx(); n.freqIx != ix {
		n.freqIx = ix
		n.keyFeat, n.keyStr = nil, ""
	}
	if f.capL != nil {
		f.capL.setNode(name, 0)
	}
	f.version++
	n.version++
	// One event covers the eviction cascade: replay evicts the node's
	// residents implicitly, so a per-resident departed would double-remove.
	f.journalLocked(wal.Event{Type: wal.EvNodeDown, Node: name})
	f.flushJournalLocked()
	// Registered lazily so fleets that never lose a machine keep their
	// /metrics exposition (and the server e2e golden) unchanged.
	f.reg.Counter("fleet_node_down_total").Inc()
	if len(evicted) > 0 {
		f.reg.Counter("fleet_node_evicted_total").Add(uint64(len(evicted)))
	}
	return evicted, nil
}

// RestoreNode brings a down machine back (empty, as after a reboot) and
// pumps the admission queue into the recovered capacity, returning any
// admissions that resulted.
func (f *Fleet) RestoreNode(ctx context.Context, name string) ([]Placed, error) {
	f.mu.Lock()
	n := f.nodeByNameLocked(name)
	if n == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, name)
	}
	if !n.down {
		f.mu.Unlock()
		return nil, fmt.Errorf("fleet: node %q is not down", name)
	}
	n.down = false
	if f.capL != nil {
		// Back up, empty: the node draws its static floor again.
		f.capL.setNode(name, staticWatts(n))
	}
	// Symmetric with FailNode: a restored machine comes back empty, so any
	// memoized scores still keyed to its groups (possible when the caller
	// re-placed workloads elsewhere between fail and restore) are hygiene
	// to drop, never a correctness requirement — keys are content-addressed.
	f.invalidateNodeLocked(n)
	f.version++
	n.version++
	f.journalLocked(wal.Event{Type: wal.EvNodeUp, Node: name})
	f.flushJournalLocked()
	f.reg.Counter("fleet_node_up_total").Inc()
	f.mu.Unlock()
	// Pump (not pumpLocked): queued features may need profiling against
	// this node's machine kind, which must happen outside the fleet lock.
	return f.Pump(ctx)
}

// NodeInspection is one node's full scheduler-visible state, exposed for
// invariant checking (internal/chaos): the paper's Eq. 1/Eq. 10 properties
// are statements about exactly this data. Residents carry the feature
// vectors the models actually used, in deterministic core/arrival order.
type NodeInspection struct {
	Name       string
	Machine    *machine.Machine
	MaxPerCore int
	Down       bool
	Residents  []manager.Resident
	// Priorities holds each resident's priority class, indexed like
	// Residents (class 0 for residents placed without options). The
	// chaos priority-inversion invariant reads it.
	Priorities []int
	// Freq is the node's current rung index on its machine's DVFS ladder
	// (the base rung for machines without one). The chaos cap invariants
	// re-price every node's draw from it.
	Freq int
}

// Assignment reconstructs the node's model-side assignment from the
// inspected residents.
func (ni NodeInspection) Assignment() core.Assignment {
	asg := make(core.Assignment, ni.Machine.NumCores)
	for _, r := range ni.Residents {
		asg[r.Core] = append(asg[r.Core], r.Feature)
	}
	return asg
}

// Inspect captures every node's state under one lock acquisition, so the
// snapshot is consistent: no placement can commit between two nodes' rows.
func (f *Fleet) Inspect() []NodeInspection {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]NodeInspection, len(f.nodes))
	for i, n := range f.nodes {
		residents := n.mgr.Residents()
		prios := make([]int, len(residents))
		for j, r := range residents {
			prios[j] = n.meta[r.Name].priority
		}
		out[i] = NodeInspection{
			Name:       n.cfg.Name,
			Machine:    n.cfg.Machine,
			MaxPerCore: n.cfg.MaxPerCore,
			Down:       n.down,
			Residents:  residents,
			Priorities: prios,
			Freq:       n.freqIx,
		}
	}
	return out
}

func (f *Fleet) nodeByNameLocked(name string) *node {
	for _, n := range f.nodes {
		if n.cfg.Name == name {
			return n
		}
	}
	return nil
}

// CoreState is one core's resident instances.
type CoreState struct {
	Core  int      `json:"core"`
	Procs []string `json:"procs"`
}

// NodeState is one machine's view in the fleet state.
type NodeState struct {
	Node           string      `json:"node"`
	Machine        string      `json:"machine"`
	MaxPerCore     int         `json:"max_per_core,omitempty"`
	Cores          []CoreState `json:"cores"`
	Residents      int         `json:"residents"`
	FreeSlots      int         `json:"free_slots"` // -1 = unbounded
	EstimatedWatts float64     `json:"estimated_watts"`
	PredictedSPI   float64     `json:"predicted_spi"`
	// Down marks a lost machine (FailNode): no residents, no capacity,
	// zero model estimates. Omitted while the node is up so existing
	// state consumers (and goldens) see unchanged output.
	Down bool `json:"down,omitempty"`
	// FreqState is the node's DVFS rung index + 1 when the node is off
	// its base state (estimates above are scaled to it); omitted at base
	// so legacy state consumers and goldens see unchanged output.
	FreqState int `json:"freq_state,omitempty"`
}

// State is the fleet-wide view: per-machine residents and model estimates
// plus the totals and the queue.
type State struct {
	Policy            string      `json:"policy"`
	Nodes             []NodeState `json:"nodes"`
	Residents         int         `json:"residents"`
	QueueDepth        int         `json:"queue_depth"`
	Queued            []string    `json:"queued,omitempty"`
	TotalWatts        float64     `json:"total_watts"`
	TotalPredictedSPI float64     `json:"total_predicted_spi"`
	// PowerCap and CapUsage report the watt budget and the ledger's
	// current draw estimate; both omitted while the fleet is uncapped.
	PowerCap float64 `json:"power_cap,omitempty"`
	CapUsage float64 `json:"cap_usage,omitempty"`
}

// State reports the current fleet state, computing each machine's power
// and SPI estimates from the combined model.
func (f *Fleet) State(ctx context.Context) (*State, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := &State{Policy: f.cfg.Policy.String()}
	for _, n := range f.nodes {
		ns, err := f.nodeStateLocked(ctx, n)
		if err != nil {
			return nil, err
		}
		st.Nodes = append(st.Nodes, ns)
		st.Residents += ns.Residents
		st.TotalWatts += ns.EstimatedWatts
		st.TotalPredictedSPI += ns.PredictedSPI
	}
	st.QueueDepth = len(f.queue)
	for _, q := range f.queue {
		st.Queued = append(st.Queued, q.spec.Name)
	}
	if f.capActive() {
		st.PowerCap = f.capL.capWatts()
		st.CapUsage = f.capL.usage()
	}
	return st, nil
}

func (f *Fleet) nodeStateLocked(ctx context.Context, n *node) (NodeState, error) {
	if n.down {
		// A lost machine consumes nothing and runs nothing; report it
		// explicitly rather than pricing an empty-but-powered CMP.
		return NodeState{
			Node:       n.cfg.Name,
			Machine:    n.cfg.Machine.Name,
			MaxPerCore: n.cfg.MaxPerCore,
			Down:       true,
		}, nil
	}
	asg := f.assignmentOf(n)
	running := n.mgr.Running()
	ns := NodeState{
		Node:       n.cfg.Name,
		Machine:    n.cfg.Machine.Name,
		MaxPerCore: n.cfg.MaxPerCore,
		FreeSlots:  -1,
	}
	for c, names := range running {
		procs := append([]string{}, names...)
		ns.Cores = append(ns.Cores, CoreState{Core: c, Procs: procs})
		ns.Residents += len(names)
	}
	if n.cfg.MaxPerCore > 0 {
		ns.FreeSlots = n.cfg.MaxPerCore*n.cfg.Machine.NumCores - ns.Residents
	}
	watts, err := n.cm.EstimateAssignmentContext(ctx, asg)
	if err != nil {
		return NodeState{}, fmt.Errorf("fleet: estimating %s power: %w", n.cfg.Name, err)
	}
	// Scale both estimates to the node's current operating point. The
	// helpers are identity-gated, so an out-of-order node at base reports
	// the exact legacy floats.
	ns.EstimatedWatts = freq.ScaleWatts(watts, staticWatts(n), dynScaleOf(n))
	spi, err := f.nodeSPI(ctx, n, asg)
	if err != nil {
		return NodeState{}, fmt.Errorf("fleet: estimating %s SPI: %w", n.cfg.Name, err)
	}
	ns.PredictedSPI = freq.ScaleSPI(spi, betaTotal(asg), spiScaleOf(n))
	if n.freqIx != n.cfg.Machine.Freq.BaseIx() {
		ns.FreqState = n.freqIx + 1
	}
	return ns, nil
}

// Totals returns the fleet-wide predicted SPI and watts sums (the sim's
// per-event integrand) without building the full state.
func (f *Fleet) Totals(ctx context.Context) (spi, watts float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		if n.down {
			continue
		}
		asg := f.assignmentOf(n)
		w, err := n.cm.EstimateAssignmentContext(ctx, asg)
		if err != nil {
			return 0, 0, err
		}
		s, err := f.nodeSPI(ctx, n, asg)
		if err != nil {
			return 0, 0, err
		}
		watts += freq.ScaleWatts(w, staticWatts(n), dynScaleOf(n))
		spi += freq.ScaleSPI(s, betaTotal(asg), spiScaleOf(n))
	}
	return spi, watts, nil
}

// collectGauges refreshes the per-machine and fleet-wide gauges right
// before a metrics scrape. Watts gauges are integer milliwatts (the
// registry's gauges are integral); a machine whose estimate fails scrapes
// as -1 rather than failing the exposition.
func (f *Fleet) collectGauges(r *metrics.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, n := range f.nodes {
		if n.down {
			// A lost machine scrapes as empty with no free slots and zero
			// draw, so dashboards see the capacity loss immediately.
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
			// Lazily registered: fleets that never re-clock keep their
			// exposition (and the server e2e golden) byte-identical.
			r.Gauge(fmt.Sprintf("fleet_machine_freq_state{node=%q}", n.cfg.Name)).Set(int64(n.freqIx + 1))
		}
	}
	r.Gauge("fleet_residents").Set(int64(total))
	r.Gauge("fleet_queue_depth").Set(int64(len(f.queue)))
	r.Gauge("fleet_machines").Set(int64(len(f.nodes)))
	if f.capActive() {
		r.Gauge("fleet_power_cap_milliwatts").Set(int64(f.capL.capWatts() * 1000))
		r.Gauge("fleet_cap_usage_milliwatts").Set(int64(f.capL.usage() * 1000))
	}
}

// SyntheticPowerModel is core.SyntheticPowerModel, re-exported where the
// fleet's callers historically found it. The implementation lives in core
// so packages that must not import fleet (manager's fast test variants,
// the chaos harness's fixtures) can share the same model.
func SyntheticPowerModel() (*core.PowerModel, error) {
	return core.SyntheticPowerModel()
}
