// Package manager holds one machine's placement state for the paper's
// motivating application (Sections 1 and 5): run-time, power-aware process
// assignment on a CMP.
//
// A Manager owns a machine's current assignment — which instance runs on
// which core, with the feature vector the models use for it — and commits
// placements a caller has already decided (PlaceAt), reinstates recovered
// ones (Adopt), and evicts departures (Remove). Deciding is the placement
// engine's job: internal/fleet scores every candidate core with the
// paper's models and commits through PlaceAt, and the single-machine
// server is a one-node fleet. Snapshot and Restore are the transaction
// primitives behind the fleet's rollbacks.
package manager

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// Sentinel errors callers (the serving layer in particular) can test with
// errors.Is to map placement failures onto typed responses.
var (
	// ErrMachineFull reports that a core cannot accept another process
	// under the configured MaxPerCore cap.
	ErrMachineFull = errors.New("no admissible core")
	// ErrUnknownProcess reports a Remove for an instance name that is not
	// resident.
	ErrUnknownProcess = errors.New("unknown process")
	// ErrNoImprovement reports that a rebalance found no layout change
	// worth making; the assignment is untouched when it is returned.
	ErrNoImprovement = errors.New("no improving move")
)

// FeatureSource supplies feature vectors for workloads: the fleet's shared
// bounded cache with singleflight deduplication, in production.
// Implementations must be safe for concurrent use, deterministic for a
// given workload name (same contract as core.ProfileSeed), and must honour
// ctx so a cancelled request abandons an in-flight profiling sweep
// promptly.
type FeatureSource interface {
	FeatureOf(ctx context.Context, spec *workload.Spec) (*core.FeatureVector, error)
}

// Policy names a single-machine placement policy, as the server's Config
// selects it. The server decides with the fleet policy each one maps to.
type Policy int

const (
	// PowerAware places each arrival on the core minimizing the combined
	// model's estimated processor power.
	PowerAware Policy = iota
	// LeastLoaded places each arrival on a core with the fewest
	// processes, breaking ties by core index.
	LeastLoaded
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PowerAware:
		return "power-aware"
	case LeastLoaded:
		return "least-loaded"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Options configures a Manager.
type Options struct {
	// MaxPerCore bounds time-sharing depth (0 = unbounded).
	MaxPerCore int
	// Features supplies every feature vector (required); caching and
	// concurrent-run deduplication are its responsibility.
	Features FeatureSource
	// SolverState, when non-nil, memoizes converged equilibrium solutions
	// across this manager's power estimates (and across managers when
	// shared, as the fleet scheduler does). Estimates are bit-identical
	// with or without it — see core.PredictGroupCached.
	SolverState *core.SolverState
	// Intercept, when non-nil, is consulted at the "manager.place_at"
	// fault-injection site (key = workload name, ahead of the commit); a
	// non-nil return is injected as PlaceAt's error before any state
	// mutates. It is the chaos-testing seam (internal/chaos);
	// implementations must be safe for concurrent use.
	Intercept func(site, key string) error
}

// Manager tracks one machine's assignment. All methods are safe for
// concurrent use: the placement lock serializes assignment mutations,
// while feature resolution runs outside it.
type Manager struct {
	mach *machine.Machine
	cm   *core.CombinedModel
	opts Options

	// mu is the placement lock: it guards procs, features, specs and
	// nextID.
	mu sync.Mutex
	// procs[c] holds the resident process names per core, in arrival
	// order; instances of the same workload get unique instance names.
	procs    [][]string
	features map[string]*core.FeatureVector // by instance name
	specs    map[string]*workload.Spec      // by instance name
	nextID   int
	// version counts assignment mutations (placements, removals,
	// restores). Callers that cache derived views of the assignment (the
	// fleet's per-node snapshots) compare it to decide whether their copy
	// is current.
	version uint64
	// asgCache memoizes assignmentLocked's model-side view for the current
	// version. The cached value is never written again once handed out —
	// mutations rebuild procs/features and bump version, so a stale cache
	// is simply rebuilt — which keeps the snapshot semantics callers rely
	// on (a held Assignment() result stays the pre-mutation view).
	asgCache  core.Assignment
	asgCacheV uint64
}

// New builds a manager for machine m with a trained power model.
func New(m *machine.Machine, pm *core.PowerModel, opts Options) *Manager {
	if opts.Features == nil {
		panic("manager: Options.Features is required")
	}
	cm := core.NewCombinedModel(m, pm)
	cm.State = opts.SolverState
	return &Manager{
		mach:     m,
		cm:       cm,
		opts:     opts,
		procs:    make([][]string, m.NumCores),
		features: map[string]*core.FeatureVector{},
		specs:    map[string]*workload.Spec{},
	}
}

// intercept consults the configured fault-injection seam.
func (mgr *Manager) intercept(site, key string) error {
	if mgr.opts.Intercept == nil {
		return nil
	}
	return mgr.opts.Intercept(site, key)
}

// FeatureOf returns the feature vector of a workload from the configured
// source.
func (mgr *Manager) FeatureOf(ctx context.Context, spec *workload.Spec) (*core.FeatureVector, error) {
	return mgr.opts.Features.FeatureOf(ctx, spec)
}

// Snapshot is a deep copy of a Manager's resident state: the per-core
// instance lists, the instance feature/spec maps, and the instance-name
// counter. It is the transaction primitive behind the fleet scheduler's
// rollbacks: capture a snapshot, mutate, and Restore on failure.
type Snapshot struct {
	procs    [][]string
	features map[string]*core.FeatureVector
	specs    map[string]*workload.Spec
	nextID   int
}

// Snapshot captures the manager's resident state. The copy is deep, so
// later mutations of the manager never leak into it and one snapshot can
// be restored any number of times.
func (mgr *Manager) Snapshot() *Snapshot {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	s := &Snapshot{
		procs:    make([][]string, len(mgr.procs)),
		features: make(map[string]*core.FeatureVector, len(mgr.features)),
		specs:    make(map[string]*workload.Spec, len(mgr.specs)),
		nextID:   mgr.nextID,
	}
	for c, names := range mgr.procs {
		s.procs[c] = append([]string(nil), names...)
	}
	for n, f := range mgr.features {
		s.features[n] = f
	}
	for n, sp := range mgr.specs {
		s.specs[n] = sp
	}
	return s
}

// Restore resets the manager's resident state to a snapshot taken earlier
// on the same manager.
func (mgr *Manager) Restore(s *Snapshot) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	mgr.procs = make([][]string, len(s.procs))
	for c, names := range s.procs {
		mgr.procs[c] = append([]string(nil), names...)
	}
	mgr.features = make(map[string]*core.FeatureVector, len(s.features))
	for n, f := range s.features {
		mgr.features[n] = f
	}
	mgr.specs = make(map[string]*workload.Spec, len(s.specs))
	for n, sp := range s.specs {
		mgr.specs[n] = sp
	}
	mgr.nextID = s.nextID
	mgr.version++
}

// Machine returns the modeled CMP this manager schedules onto.
func (mgr *Manager) Machine() *machine.Machine { return mgr.mach }

// MaxPerCore reports the configured time-sharing depth bound (0 =
// unbounded). Invariant checkers use it to verify the cap is never
// exceeded, whatever path admitted the residents.
func (mgr *Manager) MaxPerCore() int { return mgr.opts.MaxPerCore }

// Version returns the assignment mutation counter: it changes whenever a
// placement, removal, or restore commits, so a caller holding
// a derived view (an Assignment copy, a memo key) can cheaply check
// whether the view is still current. The counter says nothing about
// *what* changed — equal versions mean an identical assignment, different
// versions mean only "re-read".
func (mgr *Manager) Version() uint64 {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.version
}

// Assignment returns the current model-side assignment.
func (mgr *Manager) Assignment() core.Assignment {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.assignmentLocked()
}

func (mgr *Manager) assignmentLocked() core.Assignment {
	if mgr.asgCache != nil && mgr.asgCacheV == mgr.version {
		return mgr.asgCache
	}
	asg := make(core.Assignment, mgr.mach.NumCores)
	for c, names := range mgr.procs {
		for _, n := range names {
			asg[c] = append(asg[c], mgr.features[n])
		}
	}
	mgr.asgCache, mgr.asgCacheV = asg, mgr.version
	return asg
}

// PlaceAt admits a new instance of spec on a specific core the caller (the
// fleet scheduler, which scores candidate slots itself) has already
// chosen, and returns its instance name and the estimated processor power
// after the placement. Admissibility under MaxPerCore is enforced, and on
// any error the manager state is exactly as it was.
func (mgr *Manager) PlaceAt(ctx context.Context, spec *workload.Spec, c int) (name string, watts float64, err error) {
	f, err := mgr.FeatureOf(ctx, spec)
	if err != nil {
		return "", 0, err
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if err := mgr.intercept("manager.place_at", spec.Name); err != nil {
		return "", 0, err
	}
	if c < 0 || c >= mgr.mach.NumCores {
		return "", 0, fmt.Errorf("manager: core %d out of range [0,%d)", c, mgr.mach.NumCores)
	}
	if !mgr.admissible(c) {
		return "", 0, fmt.Errorf("manager: core %d: %w (MaxPerCore=%d)", c, ErrMachineFull, mgr.opts.MaxPerCore)
	}
	watts, err = mgr.cm.EstimateAdditionContext(ctx, mgr.assignmentLocked(), f, c)
	if err != nil {
		return "", 0, err
	}
	mgr.nextID++
	name = spec.Name + "#" + strconv.Itoa(mgr.nextID)
	mgr.procs[c] = append(mgr.procs[c], name)
	mgr.features[name] = f
	mgr.specs[name] = spec
	mgr.version++
	return name, watts, nil
}

// Adopt reinstates a recovered instance under its original name on a
// specific core — the WAL recovery path. Unlike PlaceAt it allocates no
// instance name: the name is the logbook's, and the ID counter only
// ratchets past any adopted "#<id>" suffix so future placements never
// collide with recovered names. Admissibility is still enforced; no
// power estimate is computed (recovery replays facts, not decisions).
func (mgr *Manager) Adopt(ctx context.Context, spec *workload.Spec, name string, c int) error {
	f, err := mgr.FeatureOf(ctx, spec)
	if err != nil {
		return err
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if c < 0 || c >= mgr.mach.NumCores {
		return fmt.Errorf("manager: core %d out of range [0,%d)", c, mgr.mach.NumCores)
	}
	if _, ok := mgr.specs[name]; ok {
		return fmt.Errorf("manager: instance %q already resident", name)
	}
	if !mgr.admissible(c) {
		return fmt.Errorf("manager: core %d: %w (MaxPerCore=%d)", c, ErrMachineFull, mgr.opts.MaxPerCore)
	}
	if i := strings.LastIndexByte(name, '#'); i >= 0 {
		if id, aerr := strconv.Atoi(name[i+1:]); aerr == nil && id > mgr.nextID {
			mgr.nextID = id
		}
	}
	mgr.procs[c] = append(mgr.procs[c], name)
	mgr.features[name] = f
	mgr.specs[name] = spec
	mgr.version++
	return nil
}

// Resident describes one placed instance: its unique name, the core it
// occupies, and the workload identity behind it.
type Resident struct {
	Name    string
	Core    int
	Spec    *workload.Spec
	Feature *core.FeatureVector
}

// Residents lists the placed instances in deterministic order: core by
// core, arrival order within a core.
func (mgr *Manager) Residents() []Resident {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	var out []Resident
	for c, names := range mgr.procs {
		for _, n := range names {
			out = append(out, Resident{Name: n, Core: c, Spec: mgr.specs[n], Feature: mgr.features[n]})
		}
	}
	return out
}

func (mgr *Manager) admissible(c int) bool {
	return mgr.opts.MaxPerCore == 0 || len(mgr.procs[c]) < mgr.opts.MaxPerCore
}

// Remove evicts the named instance (process exit).
func (mgr *Manager) Remove(name string) error {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	for c, names := range mgr.procs {
		for i, n := range names {
			if n == name {
				mgr.procs[c] = append(names[:i], names[i+1:]...)
				delete(mgr.features, name)
				delete(mgr.specs, name)
				mgr.version++
				return nil
			}
		}
	}
	return fmt.Errorf("manager: %w %q", ErrUnknownProcess, name)
}

// Running returns the instance names currently placed, per core.
func (mgr *Manager) Running() [][]string {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	out := make([][]string, len(mgr.procs))
	for c, names := range mgr.procs {
		out[c] = append([]string(nil), names...)
	}
	return out
}
