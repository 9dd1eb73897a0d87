// Package manager holds the names the placement engine shares with its
// callers — Resident, the placement sentinels, and the single-machine
// Policy the server's Config selects — and the per-machine API the
// benchmark's layer rows are built against. The placement service keeps
// one machine's resident state in its fleet node (internal/fleet), under
// the fleet's lock; Manager is a standalone copy of the node's commit path
// (PlaceAt, Adopt, Remove, Snapshot) for those rows. It goes when the
// benchmark's rows point at the fleet node.
package manager

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// Resident describes one placed instance: its unique name, the core it
// occupies, and the workload identity behind it.
type Resident struct {
	Name    string
	Core    int
	Spec    *workload.Spec
	Feature *core.FeatureVector
}

// FeatureSource supplies feature vectors for workloads. Implementations
// must be safe for concurrent use and deterministic for a given workload
// name, and must honour ctx.
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
	// Features supplies every feature vector (required).
	Features FeatureSource
	// SolverState, when non-nil, memoizes converged equilibrium solutions
	// across power estimates; estimates are bit-identical without it.
	SolverState *core.SolverState
	// Intercept, when non-nil, is consulted at the "manager.place_at"
	// fault-injection site (key = workload name) ahead of the commit.
	Intercept func(site, key string) error
}

// Manager tracks one machine's residents. Its methods are safe for
// concurrent use.
type Manager struct {
	cm   *core.CombinedModel
	opts Options

	mu sync.Mutex
	// res lists the residents core by core, in arrival order within a
	// core; nextID numbers instance names.
	res    []Resident
	nextID int
}

// New builds a manager for machine m with a trained power model.
func New(m *machine.Machine, pm *core.PowerModel, opts Options) *Manager {
	if opts.Features == nil {
		panic("manager: Options.Features is required")
	}
	cm := core.NewCombinedModel(m, pm)
	cm.State = opts.SolverState
	return &Manager{cm: cm, opts: opts}
}

// Snapshot is a copy of a Manager's resident state.
type Snapshot struct {
	res    []Resident
	nextID int
}

// Snapshot captures the manager's resident state.
func (mgr *Manager) Snapshot() *Snapshot {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return &Snapshot{res: slices.Clone(mgr.res), nextID: mgr.nextID}
}

// assignment builds the model-side view of the residents. Callers hold
// mu.
func (mgr *Manager) assignment() core.Assignment {
	asg := make(core.Assignment, mgr.cm.Machine.NumCores)
	for _, r := range mgr.res {
		asg[r.Core] = append(asg[r.Core], r.Feature)
	}
	return asg
}

// check refuses a core outside the machine or at its MaxPerCore cap.
// Callers hold mu.
func (mgr *Manager) check(c int) error {
	if c < 0 || c >= mgr.cm.Machine.NumCores {
		return fmt.Errorf("manager: core %d out of range [0,%d)", c, mgr.cm.Machine.NumCores)
	}
	n := 0
	for _, r := range mgr.res {
		if r.Core == c {
			n++
		}
	}
	if mgr.opts.MaxPerCore != 0 && n >= mgr.opts.MaxPerCore {
		return fmt.Errorf("manager: core %d: %w (MaxPerCore=%d)", c, ErrMachineFull, mgr.opts.MaxPerCore)
	}
	return nil
}

// add inserts r after its core's earlier arrivals. Callers hold mu.
func (mgr *Manager) add(r Resident) {
	i := len(mgr.res)
	for i > 0 && mgr.res[i-1].Core > r.Core {
		i--
	}
	mgr.res = slices.Insert(mgr.res, i, r)
}

// PlaceAt admits a new instance of spec on core c and returns its instance
// name and the estimated processor power after the placement. On any
// error the manager is exactly as it was.
func (mgr *Manager) PlaceAt(ctx context.Context, spec *workload.Spec, c int) (name string, watts float64, err error) {
	f, err := mgr.opts.Features.FeatureOf(ctx, spec)
	if err != nil {
		return "", 0, err
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if mgr.opts.Intercept != nil {
		if err := mgr.opts.Intercept("manager.place_at", spec.Name); err != nil {
			return "", 0, err
		}
	}
	if err := mgr.check(c); err != nil {
		return "", 0, err
	}
	watts, err = mgr.cm.EstimateAdditionContext(ctx, mgr.assignment(), f, c)
	if err != nil {
		return "", 0, err
	}
	mgr.nextID++
	name = spec.Name + "#" + strconv.Itoa(mgr.nextID)
	mgr.add(Resident{Name: name, Core: c, Spec: spec, Feature: f})
	return name, watts, nil
}

// Adopt reinstates a recovered instance under its original name on core
// c. The ID counter ratchets past any adopted "#<id>" suffix so future
// placements never collide with it.
func (mgr *Manager) Adopt(ctx context.Context, spec *workload.Spec, name string, c int) error {
	f, err := mgr.opts.Features.FeatureOf(ctx, spec)
	if err != nil {
		return err
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if slices.ContainsFunc(mgr.res, func(r Resident) bool { return r.Name == name }) {
		return fmt.Errorf("manager: instance %q already resident", name)
	}
	if err := mgr.check(c); err != nil {
		return err
	}
	if i := strings.LastIndexByte(name, '#'); i >= 0 {
		if id, aerr := strconv.Atoi(name[i+1:]); aerr == nil && id > mgr.nextID {
			mgr.nextID = id
		}
	}
	mgr.add(Resident{Name: name, Core: c, Spec: spec, Feature: f})
	return nil
}

// Remove evicts the named instance.
func (mgr *Manager) Remove(name string) error {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	i := slices.IndexFunc(mgr.res, func(r Resident) bool { return r.Name == name })
	if i < 0 {
		return fmt.Errorf("manager: %w %q", ErrUnknownProcess, name)
	}
	mgr.res = slices.Delete(mgr.res, i, i+1)
	return nil
}
