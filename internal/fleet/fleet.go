// Package fleet scales the paper's single-machine framework out to a
// cluster: a scheduler that owns N machines (heterogeneous presets
// allowed), admits arriving processes through a bounded queue, and
// scores every candidate (machine, core) slot with the paper's own models
// — predicted SPI degradation via the Section 3 equilibrium solver,
// predicted watts via the Eq. 9 MVLR — instead of load heuristics.
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
	"slices"
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
	// ErrRolledBack marks the error of a batch or group that was rolled
	// back after admitting part of itself; the cause stays in the chain.
	ErrRolledBack = errors.New("rolled back")
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
	// ScoreCacheCap bounds the group-estimate memo (one entry per cache
	// group content: its SPI terms and busy watts), the decision memo and
	// the shared equilibrium solver state (0 = 4096 entries each; negative
	// disables all three, making every scoring pass solve cold). Caching
	// never changes any result — values are pure functions of their
	// content keys, so cold and cached runs are byte-identical (the
	// differential suite proves it) — it only changes how often the
	// equilibrium solver actually runs.
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
	// pass), and "manager.place_at" (key node/workload, ahead of a node
	// commit). Implementations must be safe for concurrent use and
	// cheap: the seam is consulted on hot paths.
	Intercept func(site, key string) error

	// whole, set only by NewSharded on the configs of its shards, is the
	// whole-fleet value the shard is one lock domain of. The shard takes
	// its feature cache, score memo, solver state, watt ledger and registry
	// from it — content-addressed or self-locking, so sharing them never
	// changes a value — and discharges preemption-ledger keys into it.
	whole *Fleet
}

// Fleet is the cluster scheduler. All methods are safe for concurrent
// use: the fleet lock serializes placement, queue, and rebalancing
// decisions (scoring included, so every decision sees a consistent
// cluster state), while profiling sweeps run outside it through the
// shared singleflight cache.
//
// The lock is parameterised by lock domain. A standalone fleet's lock is
// its mutex. The whole-fleet value NewSharded builds spans the node lists
// of its shards, and its lock is every shard's mutex in ascending shard
// order, then its own: holding it, the sharded fleet IS an unsharded
// fleet over the concatenated node list, and every operation that needs
// the whole cluster is this type's code run under that lock. The own
// mutex alone guards the admission queue (queue, seq, ledger, pumpRound,
// jbuf), so Submit and CancelQueued never wait for a shard. Lock order:
// shard mutexes ascending, queue mutex last; never a shard mutex while
// holding the queue mutex.
type Fleet struct {
	cfg   Config
	nodes []*node
	// byName indexes nodes by name; names are unique and fixed once the
	// fleet is wired, so it is read without further ceremony.
	byName map[string]*node
	feats  *featureCache
	// scores memoizes group estimates and solver the underlying
	// equilibrium solutions; both nil when ScoreCacheCap < 0 (cold mode).
	scores *scoreCache
	solver *core.SolverState
	// powers numbers the distinct power models in node order, the name the
	// memo key gives a node's model; a shard shares its whole fleet's.
	powers map[*core.PowerModel]int
	// ctab is the combination table of whichever goroutine holds this
	// fleet's lock: every Eq. 10 pass of one hold solves through it, and
	// unlock empties it (nil only when tables are off).
	ctab *core.ComboTable
	// tx is the lock holder's open transaction, nil when none is open;
	// txBuf is its reused memory. Transactions never nest: every operation
	// that opens one takes the fleet lock itself and ends it before
	// unlocking. Whole-fleet code never calls into a shard, so a
	// whole-fleet transaction lives on the whole fleet.
	tx    *txn
	txBuf txn
	// onTxnClose, when set, sees every transaction as it ends
	// (tests check the touched set against the version stamps with it).
	onTxnClose func(*txn)
	// capL is the power-cap ledger (nil until a cap is configured or set;
	// one instance across a Sharded fleet). It has its own lock.
	capL *capLedger
	reg  *metrics.Registry

	// pipe is the policy bundle every placement decides through; built
	// once in New (immutable afterwards).
	pipe *bundle
	// solves counts executed cache-group equilibrium solves (groupEstimate
	// passes that read SPI; memo hits excluded), one counter per whole
	// fleet: a shard counts into its whole fleet's. See SolverInvocations.
	solves *atomic.Uint64

	// domain lists the shards a whole-fleet value spans (nil for a
	// standalone fleet and for a shard); whole is a shard's way back to it.
	// shards is what the optimistic path scores and commits on: domain for
	// a whole-fleet value, the fleet itself for a standalone one (its own
	// single shard). Both are fixed once the fleet is wired.
	domain []*Fleet
	whole  *Fleet
	shards []*Fleet

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

// lock takes the fleet lock: the domain's mutexes in shard order, then
// the fleet's own (for a standalone fleet, just that).
func (f *Fleet) lock() {
	for _, sh := range f.domain {
		sh.mu.Lock()
	}
	f.mu.Lock()
}

func (f *Fleet) unlock() {
	f.ctab.Reset()
	f.mu.Unlock()
	for i := len(f.domain) - 1; i >= 0; i-- {
		f.domain[i].mu.Unlock()
	}
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
	// committing marks an entry whose placement commit is in flight on a
	// shard, outside the queue mutex: CancelQueued refuses it (the process
	// will land placed) and concurrent pumps skip it, which keeps
	// cancel-vs-pump unambiguous across the two locks. An entry a pump is
	// only scoring is NOT committing — cancellation wins there, and the
	// pump's claim before the commit finds the ticket gone.
	committing bool
}

// opts is the entry's placement options; the ticket and ledger key ride
// along so the commit journals and records them.
func (q queued) opts() PlaceOptions {
	return PlaceOptions{Tag: q.tag, Priority: q.priority, ticket: q.ticket, key: q.key}
}

// setDefaults validates the fleet-wide settings and fills in the zero
// values; New and NewSharded both start here.
func (cfg *Config) setDefaults() error {
	if len(cfg.Nodes) == 0 {
		return errors.New("fleet: no nodes configured")
	}
	if cfg.BinPackCeiling == 0 {
		cfg.BinPackCeiling = 0.25
	}
	if cfg.BinPackCeiling < 0 {
		return fmt.Errorf("fleet: negative BinPackCeiling %v", cfg.BinPackCeiling)
	}
	if cfg.PowerCap < 0 {
		return fmt.Errorf("fleet: negative PowerCap %v", cfg.PowerCap)
	}
	if cfg.MaxFeasible < 0 {
		return fmt.Errorf("fleet: negative MaxFeasible %d", cfg.MaxFeasible)
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
	return nil
}

// comboTablesOff builds fleets without combination tables, so every Eq. 10
// pass solves each combination it meets. Tests set it to show the tables
// change no result.
var comboTablesOff bool

// newShell builds a fleet before any node joins it: the feature cache,
// score memo, solver state, power-model numbering, watt ledger and solve
// counter — a shard's are its whole fleet's.
func newShell(cfg Config) *Fleet {
	f := &Fleet{cfg: cfg, reg: cfg.Registry, whole: cfg.whole}
	if !comboTablesOff {
		f.ctab = core.NewComboTable()
	}
	if w := cfg.whole; w != nil {
		f.feats, f.scores, f.solver, f.powers, f.capL, f.solves = w.feats, w.scores, w.solver, w.powers, w.capL, w.solves
		return f
	}
	f.solves = new(atomic.Uint64)
	f.powers = make(map[*core.PowerModel]int)
	f.feats = newFeatureCache(cfg, f.reg)
	if cfg.ScoreCacheCap > 0 {
		f.scores = newScoreCache(cfg.ScoreCacheCap, cfg.Intercept)
		f.solver = core.NewSolverState(cfg.ScoreCacheCap)
	}
	if cfg.PowerCap > 0 {
		f.capL = newCapLedger()
		f.capL.setCap(cfg.PowerCap)
	}
	return f
}

// New validates cfg, applies defaults, and assembles the fleet.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	f := newShell(cfg)
	for i := range cfg.Nodes {
		nc := cfg.Nodes[i]
		if nc.Name == "" {
			nc.Name = fmt.Sprintf("m%d", i)
		}
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
		cm := core.NewCombinedModel(nc.Machine, nc.Power)
		cm.State = f.solver
		power, ok := f.powers[nc.Power]
		if !ok {
			power = len(f.powers)
			f.powers[nc.Power] = power
		}
		n := &node{
			cfg:    nc,
			kind:   kind,
			cm:     cm,
			power:  power,
			freqIx: nc.Machine.Freq.BaseIx(),
			asg:    make(core.Assignment, nc.Machine.NumCores),
		}
		f.nodes = append(f.nodes, n)
		if f.capL != nil {
			// An empty node's Eq. 10 estimate is exactly its static floor —
			// per-core idle intercepts — so seeding the ledger needs no solve.
			f.capL.setNode(nc.Name, staticWatts(n))
		}
	}
	return f, f.wire()
}

// wire finishes a fleet whose node list is complete: the name index, the
// shard list, the policy bundle, the preemption ledger's limits, the
// counters and — except on a shard, whose whole-fleet value reports for
// it — the gauge collector.
func (f *Fleet) wire() error {
	f.byName = make(map[string]*node, len(f.nodes))
	for _, n := range f.nodes {
		if f.byName[n.cfg.Name] != nil {
			return fmt.Errorf("fleet: duplicate node name %q", n.cfg.Name)
		}
		f.byName[n.cfg.Name] = n
	}
	if f.shards = f.domain; f.shards == nil {
		f.shards = []*Fleet{f}
	}
	pipe, err := newBundle(f)
	if err != nil {
		return err
	}
	f.pipe = pipe
	f.ledger.MaxAttempts = f.cfg.PreemptMaxAttempts
	f.ledger.MaxBackoff = f.cfg.PreemptMaxBackoff
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
	if f.whole == nil {
		f.reg.OnCollect(f.collectGauges)
		if f.scores != nil {
			f.reg.OnCollect(f.collectMemoStats)
		}
	}
	return nil
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
// instance name the node assigned, the chosen core, the
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
	// key is a requeued preemption victim's ledger identity: the commit
	// re-attaches it to the new instance, so repeat preemptions of the same
	// logical process escalate its backoff and only a clean exit
	// discharges it.
	key string
}

// Place admits one arrival at the policy's best slot. A single placement
// is atomic by construction (scoring mutates nothing; the commit either
// happens wholly or not at all), so no snapshot is needed.
func (f *Fleet) Place(ctx context.Context, spec *workload.Spec) (Placed, error) {
	return f.PlaceWith(ctx, spec, PlaceOptions{})
}

// PlaceWith is Place with explicit scheduling options (tag, priority
// class, taint tolerations). It decides under the whole lock; on a
// standalone fleet that is also its only path: a detached capture would
// allocate a per-node version slice per placement, which on a 1 000-node
// fleet costs more than the concurrency it buys.
func (f *Fleet) PlaceWith(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error) {
	if err := f.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
		return Placed{}, err
	}
	f.lock()
	defer f.unlock()
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

// txn is the rollback window of every multi-step mutation — batch, group,
// preemption, cap enforcement, rebalance. When it opens it records what
// such an operation can change fleet-wide: the watt ledger's rows, the
// rotation cursor, and the journal's staged tail. A node is recorded the
// first time the operation writes it (touchLocked): its resident record,
// instance-name counter and DVFS rung. So an operation pays for the nodes
// it changes, not for the fleet. Queue, preemption ledger and counters are
// only ever touched after the last fallible step, so they are not in it.
type txn struct {
	f       *Fleet
	touched []touchedNode
	// capped records whether names/rows hold the ledger (a cap was active
	// at the start).
	capped bool
	names  []string
	rows   []float64
	rrNode int
	staged int
}

// touchedNode is one node's state as of the first write to it inside a
// transaction: a copy of its resident record, and the assignment and
// decision suffix that describe it (immutable, so held, not copied).
type touchedNode struct {
	n      *node
	res    []resident
	nextID int
	asg    core.Assignment
	suffix string
	rung   int
}

// beginLocked opens the fleet's transaction. Callers hold the fleet lock
// and end it with rollback or close on every path.
func (f *Fleet) beginLocked() *txn {
	if f.tx != nil {
		panic("fleet: nested transaction")
	}
	t := &f.txBuf
	t.f = f
	t.rrNode, t.staged = f.rrNode, len(f.jbuf)
	t.capped = f.capActive()
	if t.capped {
		t.names, t.rows = f.capL.copyRows(t.names[:0], t.rows[:0])
	}
	f.tx = t
	return t
}

// touchLocked records n into the open transaction, if any, the first time
// it is written there; it goes ahead of every write to a node that can
// happen inside a transaction.
func (f *Fleet) touchLocked(n *node) {
	if t := f.tx; t != nil && !t.has(n) {
		t.touched = append(t.touched, touchedNode{
			n: n, res: slices.Clone(n.res), nextID: n.nextID, asg: n.asg, suffix: n.suffix, rung: n.freqIx,
		})
	}
}

func (t *txn) has(n *node) bool {
	for i := range t.touched {
		if t.touched[i].n == n {
			return true
		}
	}
	return false
}

// rollback restores everything the transaction covers, bit for bit: a
// rolled-back operation is indistinguishable from one never attempted,
// and leaves no trace in the journal. Only touched nodes are restored;
// their version stamps stay bumped (a spurious conflict is harmless, a
// missed one is not), and every other node's stamp never moved.
func (t *txn) rollback() {
	f := t.f
	for _, tn := range t.touched {
		n := tn.n
		n.res, n.nextID, n.suffix, n.freqIx = tn.res, tn.nextID, tn.suffix, tn.rung
		// Cap every core: the operation may have appended into the arrays
		// the recorded assignment still reaches past its ends.
		n.asg = make(core.Assignment, len(tn.asg))
		for c, procs := range tn.asg {
			n.asg[c] = procs[:len(procs):len(procs)]
		}
	}
	if t.capped {
		f.capL.restoreRows(t.names, t.rows)
	}
	f.rrNode = t.rrNode
	f.jbuf = f.jbuf[:t.staged]
	t.close()
}

// close ends the transaction, keeping its memory for the next.
func (t *txn) close() {
	f := t.f
	if f.onTxnClose != nil {
		f.onTxnClose(t)
	}
	clear(t.touched)
	t.touched = t.touched[:0]
	f.tx = nil
}

// PlaceAll admits a batch of arrivals transactionally: either every
// instance is admitted, or every machine's resident set, instance-name
// counter, rung and ledger row, and the fleet's round-robin cursor are
// restored to their pre-call state and the error reports why (the cause
// stays reachable with errors.Is).
func (f *Fleet) PlaceAll(ctx context.Context, specs []*workload.Spec) ([]Placed, error) {
	if err := f.feats.resolve(ctx, specs); err != nil {
		return nil, err
	}
	f.lock()
	defer f.unlock()
	tx := f.beginLocked()
	out := make([]Placed, len(specs))
	for i, s := range specs {
		err := ctx.Err()
		if err == nil {
			out[i], err = f.placeOneLocked(ctx, s, PlaceOptions{})
		}
		if err != nil {
			tx.rollback()
			return nil, f.rolledBack("batch", "placement", i, err)
		}
	}
	tx.close()
	f.placed.Add(uint64(len(out)))
	f.flushJournalLocked()
	return out, nil
}

// rolledBack counts a rolled-back batch or group and wraps its cause with
// how far the operation got.
func (f *Fleet) rolledBack(what, unit string, admitted int, cause error) error {
	if errors.Is(cause, ErrFleetFull) {
		f.rejected.Inc()
	}
	if admitted == 0 {
		return cause
	}
	f.rollbacks.Inc()
	return fmt.Errorf("fleet: %s %w after %d %s(s): %w", what, ErrRolledBack, admitted, unit, cause)
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

// commitLocked commits one decided slot into its node's record, with the
// arrival's scheduler-side facts. When the score carries a frequency
// target (the frequency-aware policies), the node is re-clocked as part
// of the commit; when a power cap is active, the node's post-placement
// scaled draw is reserved in the watt ledger BEFORE the node mutates — a
// failed reservation surfaces as ErrFleetFull with the cluster untouched.
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
		sc := getScratch()
		_, w, err := f.nodeEstimate(ctx, n, sc.withAddition(f.assignmentOf(n), feat, s.Core), core.ReadWatts)
		putScratch(sc)
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
	f.touchLocked(n)
	name, watts, err := f.placeAtLocked(ctx, n, spec, s.Core, opts)
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
	score := s.Value
	if f.pipe.zeroScore {
		score = 0
	}
	if f.pipe.advance {
		f.rrNode = (best + 1) % len(f.nodes)
	}
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
//
// The queue accessors — SubmitWith, CancelQueued, QueueDepth, QueuedInfo —
// take the queue mutex alone, never the lock domain: on a sharded fleet
// they do not wait for any shard.
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
// still queued — and true is unambiguous: an entry a pump is scoring is
// still cancellable, because the pump revalidates the ticket under the
// queue mutex before committing and a cancelled entry is never placed. A
// committing entry — its commit already in flight on a shard — reports
// false: that process will land placed.
func (f *Fleet) CancelQueued(ticket int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.ticketIndexLocked(ticket)
	if i < 0 || f.queue[i].committing {
		return false
	}
	if key := f.queue[i].key; key != "" {
		f.ledger.Forget(key)
	}
	f.queue = append(f.queue[:i], f.queue[i+1:]...)
	f.qAbandoned.Inc()
	f.journalLocked(wal.Event{Type: wal.EvCancelled, Ticket: ticket})
	f.flushJournalLocked()
	return true
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

// pendingSpecs lists the queued workloads, for resolving their features
// outside every lock before a pump.
func (f *Fleet) pendingSpecs() []*workload.Spec {
	f.mu.Lock()
	defer f.mu.Unlock()
	pending := make([]*workload.Spec, len(f.queue))
	for i, q := range f.queue {
		pending[i] = q.spec
	}
	return pending
}

// Pump tries to admit queued arrivals in admission order (highest
// priority class first, FIFO within a class), stopping at the first head
// that still does not fit anywhere. A head failing for any reason other
// than a full fleet is dropped (and counted) rather than wedging the
// queue. Returns the admissions, tags attached.
//
// For model-scoring policies each head takes the optimistic path
// (detach.go): heads come from the queue under the queue mutex alone, the
// equilibrium solves run with no lock held, and a commit lands only while
// the winning node's version stamp is unchanged — so Submit, CancelQueued,
// QueueDepth and State are never blocked behind a scoring pass. A head the
// optimistic pass cannot place is confirmed under the whole lock, where a
// positive class may preempt and anything else blocks; capacity never
// drops an entry. A cancelled context returns with every unplaced entry
// still queued: nothing is ever dropped between dequeue and commit, so
// shutdown loses no submissions.
func (f *Fleet) Pump(ctx context.Context) ([]Placed, error) {
	// Resolve features for the current queue outside the lock first.
	if err := f.feats.resolve(ctx, f.pendingSpecs()); err != nil {
		return nil, err
	}
	if !f.detached() {
		f.lock()
		defer f.unlock()
		out, err := f.pumpLocked(ctx)
		f.flushJournalLocked()
		return out, err
	}
	var out []Placed
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		q, ok := f.nextHead(first)
		if !ok {
			return out, nil
		}
		switch p, outcome := f.pumpHead(ctx, q); outcome {
		case pumpPlaced:
			out = append(out, p)
		case pumpFull:
			// Confirmed full for this head: strict head-of-line.
			return out, nil
		}
	}
}

// pumpOutcome is what one admission attempt on a queue entry came to.
type pumpOutcome int

const (
	pumpPlaced pumpOutcome = iota // committed; the Placed is valid
	pumpGone                      // entry dropped, cancelled or claimed elsewhere: next head
	pumpFull                      // confirmed to fit nowhere: the head blocks the queue
)

// pumpLocked is the in-lock pump loop (the queue cascade under Remove, and
// the Spread policy). Callers flush the journal.
func (f *Fleet) pumpLocked(ctx context.Context) ([]Placed, error) {
	f.pumpRound++
	var out []Placed
	for {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		head := f.headLocked()
		if head < 0 {
			return out, nil
		}
		switch p, outcome := f.admitLocked(ctx, head); outcome {
		case pumpPlaced:
			out = append(out, p)
		case pumpFull:
			return out, nil
		}
	}
}

// admitLocked is one in-lock admission attempt on queue entry i: decide
// against the live cluster, preempt when the fleet is full and the entry
// outranks a resident, commit. A full fleet leaves the entry queued; any
// other failure drops it. Callers hold the fleet lock and flush the
// journal.
func (f *Fleet) admitLocked(ctx context.Context, i int) (Placed, pumpOutcome) {
	q := f.queue[i]
	p, err := f.placeOneLocked(ctx, q.spec, q.opts())
	switch {
	case errors.Is(err, ErrFleetFull):
		return Placed{}, pumpFull
	case err != nil:
		f.dropQueuedLocked(i)
		return Placed{}, pumpGone
	}
	f.admitQueuedLocked(&p, i)
	return p, pumpPlaced
}

// admitTicket is admitLocked for a ticket picked outside the fleet lock —
// how the optimistic pump confirms, under the whole lock, a head its
// detached pass could not place. The entry may have been cancelled or
// claimed by another pump since.
func (f *Fleet) admitTicket(ctx context.Context, ticket int) (Placed, pumpOutcome) {
	f.lock()
	defer f.unlock()
	i := f.ticketIndexLocked(ticket)
	if i < 0 || f.queue[i].committing {
		return Placed{}, pumpGone
	}
	p, outcome := f.admitLocked(ctx, i)
	f.flushJournalLocked()
	return p, outcome
}

// headLocked picks the next pumpable entry: highest priority class first,
// FIFO (ticket order) within a class — for the all-class-0 legacy queue
// that is exactly oldest-first. Entries still serving a preemption
// backoff, or committing under another pump, are skipped, not blocking;
// everything else keeps the strict head-of-line contract. Returns -1 when
// nothing is eligible.
func (f *Fleet) headLocked() int {
	head := -1
	for i, q := range f.queue {
		if q.committing || (q.key != "" && !f.ledger.Eligible(q.key, f.pumpRound)) {
			continue
		}
		if head < 0 || q.priority > f.queue[head].priority {
			head = i
		}
	}
	return head
}

// nextHead ticks the round clock on a pump's first pass and returns a
// copy of the head entry, under the queue mutex alone: a pump that finds
// the queue empty never touches a shard.
func (f *Fleet) nextHead(first bool) (queued, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if first {
		f.pumpRound++
	}
	head := f.headLocked()
	if head < 0 {
		return queued{}, false
	}
	return f.queue[head], true
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
func (f *Fleet) dropQueuedLocked(i int) {
	ticket := f.queue[i].ticket
	f.queue = append(f.queue[:i], f.queue[i+1:]...)
	f.qDropped.Inc()
	f.journalLocked(wal.Event{Type: wal.EvDropped, Ticket: ticket})
}

// dropTicket is dropQueuedLocked for a ticket whose scoring failed outside
// the fleet lock. A committing entry is left alone: its in-flight commit
// owns the disposition.
func (f *Fleet) dropTicket(ticket int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i := f.ticketIndexLocked(ticket); i >= 0 && !f.queue[i].committing {
		f.dropQueuedLocked(i)
		f.flushJournalLocked()
	}
}

// admitQueuedLocked records queue entry i's successful admission: the
// entry leaves the queue, its tag is echoed, and the counters move.
func (f *Fleet) admitQueuedLocked(p *Placed, i int) {
	p.Tag = f.queue[i].tag
	f.queue = append(f.queue[:i], f.queue[i+1:]...)
	f.placed.Inc()
	f.qAdmitted.Inc()
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

// forgetLocked discharges a preemption-ledger identity. The ledger lives
// with the admission queue: a shard, holding only its own mutex, reaches
// its whole fleet's under that fleet's queue mutex (shard mutex first,
// queue mutex last — the documented order).
func (f *Fleet) forgetLocked(key string) {
	if key == "" {
		return
	}
	owner := f
	if f.whole != nil {
		owner = f.whole
		owner.mu.Lock()
		defer owner.mu.Unlock()
	}
	owner.ledger.Forget(key)
}

// Remove evicts the named instance from the named node (process exit) and
// then pumps the admission queue into the freed capacity, returning any
// admissions that resulted.
func (f *Fleet) Remove(ctx context.Context, nodeName, instance string) ([]Placed, error) {
	f.lock()
	defer f.unlock()
	n := f.nodeByNameLocked(nodeName)
	if n == nil {
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, nodeName)
	}
	r, err := n.remove(instance)
	if err != nil {
		return nil, err
	}
	n.version++
	f.journalLocked(wal.Event{Type: wal.EvDeparted, Node: nodeName, Name: instance})
	// A clean exit discharges the preemption ledger: the next life of
	// this workload starts with a fresh backoff budget.
	f.forgetLocked(r.key)
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
	f.lock()
	defer f.unlock()
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
	evicted := n.residents()
	for _, r := range n.evictAll() {
		f.forgetLocked(r.key)
	}
	// A dead machine draws nothing, and it reboots at its base rung —
	// replay of EvNodeDown resets both, so no extra event is needed.
	n.freqIx = n.cfg.Machine.Freq.BaseIx()
	if f.capL != nil {
		f.capL.setNode(name, 0)
	}
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
	f.lock()
	n := f.nodeByNameLocked(name)
	if n == nil {
		f.unlock()
		return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, name)
	}
	if !n.down {
		f.unlock()
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
	n.version++
	f.journalLocked(wal.Event{Type: wal.EvNodeUp, Node: name})
	f.flushJournalLocked()
	f.reg.Counter("fleet_node_up_total").Inc()
	f.unlock()
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
	f.lock()
	defer f.unlock()
	out := make([]NodeInspection, len(f.nodes))
	for i, n := range f.nodes {
		prios := make([]int, len(n.res))
		for j, r := range n.res {
			prios[j] = r.priority
		}
		out[i] = NodeInspection{
			Name:       n.cfg.Name,
			Machine:    n.cfg.Machine,
			MaxPerCore: n.cfg.MaxPerCore,
			Down:       n.down,
			Residents:  n.residents(),
			Priorities: prios,
			Freq:       n.freqIx,
		}
	}
	return out
}

func (f *Fleet) nodeByNameLocked(name string) *node { return f.byName[name] }

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
	f.lock()
	defer f.unlock()
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
	ns := NodeState{
		Node:       n.cfg.Name,
		Machine:    n.cfg.Machine.Name,
		MaxPerCore: n.cfg.MaxPerCore,
		FreeSlots:  -1,
	}
	for c, names := range n.running() {
		ns.Cores = append(ns.Cores, CoreState{Core: c, Procs: append([]string{}, names...)})
	}
	ns.Residents = len(n.res)
	if n.cfg.MaxPerCore > 0 {
		ns.FreeSlots = n.cfg.MaxPerCore*n.cfg.Machine.NumCores - ns.Residents
	}
	spi, watts, err := f.nodeEstimate(ctx, n, asg, core.ReadSPI|core.ReadWatts)
	if err != nil {
		return NodeState{}, fmt.Errorf("fleet: estimating %s power: %w", n.cfg.Name, err)
	}
	// Scale both estimates to the node's current operating point. The
	// helpers are identity-gated, so an out-of-order node at base reports
	// the exact legacy floats.
	ns.EstimatedWatts = freq.ScaleWatts(watts, staticWatts(n), dynScaleOf(n))
	ns.PredictedSPI = freq.ScaleSPI(spi, betaTotal(asg), spiScaleOf(n))
	if n.freqIx != n.cfg.Machine.Freq.BaseIx() {
		ns.FreqState = n.freqIx + 1
	}
	return ns, nil
}

// Totals returns the fleet-wide predicted SPI and watts sums (the sim's
// per-event integrand) without building the full state.
func (f *Fleet) Totals(ctx context.Context) (spi, watts float64, err error) {
	f.lock()
	defer f.unlock()
	for _, n := range f.nodes {
		if n.down {
			continue
		}
		asg := f.assignmentOf(n)
		s, w, err := f.nodeEstimate(ctx, n, asg, core.ReadSPI|core.ReadWatts)
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
	f.lock()
	defer f.unlock()
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
		count := len(n.res)
		total += count
		r.Gauge(fmt.Sprintf("fleet_machine_residents{node=%q}", n.cfg.Name)).Set(int64(count))
		free := int64(-1)
		if n.cfg.MaxPerCore > 0 {
			free = int64(n.cfg.MaxPerCore*n.cfg.Machine.NumCores - count)
		}
		r.Gauge(fmt.Sprintf("fleet_machine_free_slots{node=%q}", n.cfg.Name)).Set(free)
		mw := int64(-1)
		if _, w, err := f.nodeEstimate(context.Background(), n, n.asg, core.ReadWatts); err == nil {
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
