// The node record: one machine's resident state, guarded by the lock of
// the fleet (or shard) that owns the node. Every read and write below
// happens under that lock, so the record needs no lock of its own.

package fleet

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mpmc/internal/core"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

// resident is the node's record of one placed instance: the instance plus
// the scheduler-side facts a preempted victim is requeued under (priority
// class and the submitter's tag). key is the preemption ledger identity,
// assigned at first preemption and carried through requeue and
// readmission, so repeat preemptions of the same logical process escalate
// its backoff.
type resident struct {
	manager.Resident
	tag      string
	priority int
	key      string
}

// node is one machine of the fleet: its config, machine kind (the feature
// identity it shares with every node whose machine carries the same name),
// combined model, and resident record.
type node struct {
	cfg  NodeConfig
	kind *machineKind
	cm   *core.CombinedModel
	// power is cm.Power's number in the fleet (Fleet.powers).
	power int
	// down marks a lost machine: placement, rebalancing, and the model
	// totals all skip it until RestoreNode.
	down bool
	// version counts this node's state changes: placements, departures,
	// evictions, migrations, down/up, re-clocks. Detached commits
	// revalidate the WINNING node's stamp only — a concurrent commit on
	// another node never invalidates a decision, which is what lets
	// sharded placements on disjoint machines land without re-scoring each
	// other.
	version uint64
	// freqIx is the node's current rung on its machine's DVFS ladder (the
	// base rung for machines without one). Only setFreqLocked, FailNode
	// (reboot-to-base), recovery, and the EnforceCap transaction move it.
	freqIx int

	// res lists the residents core by core, in arrival order within a
	// core. nextID numbers instance names (spec name + "#" + nextID).
	res    []resident
	nextID int
	// asg is res as the models see it: per core, the residents' feature
	// vectors in arrival order. A mutation replaces the outer slice and
	// writes no element any slice has shown, so an assignment a caller
	// captured stays the view from before the mutation (and every scoring
	// path copies on write: withAddition, withoutResident). Only an arrival
	// writes into a core's array, past the end of every view of it, and a
	// departure from a core's tail caps that core's capacity, so the next
	// arrival copies instead. suffix is asg's decision-key bytes
	// (decisionSuffix), built on first use and "" until then.
	asg    core.Assignment
	suffix string
}

// assignmentOf returns n's current assignment. Callers must hold the fleet
// lock and must not mutate the result.
func (f *Fleet) assignmentOf(n *node) core.Assignment { return n.asg }

// suffixOf returns the decision-key bytes of n's current assignment, built
// once per assignment. Callers must hold the fleet lock.
func (f *Fleet) suffixOf(n *node) string {
	if n.suffix == "" {
		n.suffix = decisionSuffix(n.asg)
	}
	return n.suffix
}

// setCore replaces core c's feature list, copying the outer slice so a
// captured assignment keeps its view.
func (n *node) setCore(c int, procs []*core.FeatureVector) {
	asg := slices.Clone(n.asg)
	asg[c] = procs
	n.asg, n.suffix = asg, ""
}

// checkCore refuses a core outside the machine. The node's errors keep the
// "manager:" prefix that responses have always carried.
func (n *node) checkCore(c int) error {
	if c < 0 || c >= n.cfg.Machine.NumCores {
		return fmt.Errorf("manager: core %d out of range [0,%d)", c, n.cfg.Machine.NumCores)
	}
	return nil
}

// full reports whether core c is at its MaxPerCore cap.
func (n *node) full(c int) bool {
	return n.cfg.MaxPerCore != 0 && len(n.asg[c]) >= n.cfg.MaxPerCore
}

// checkAdmissible refuses a core at its MaxPerCore cap.
func (n *node) checkAdmissible(c int) error {
	if n.full(c) {
		return fmt.Errorf("manager: core %d: %w (MaxPerCore=%d)", c, manager.ErrMachineFull, n.cfg.MaxPerCore)
	}
	return nil
}

// add appends r to its core, after the core's earlier arrivals.
func (n *node) add(r resident) {
	i := len(n.res)
	for i > 0 && n.res[i-1].Core > r.Core {
		i--
	}
	n.res = slices.Insert(n.res, i, r)
	n.setCore(r.Core, append(n.asg[r.Core], r.Feature))
}

// remove evicts the named resident and returns its record.
func (n *node) remove(name string) (resident, error) {
	i := slices.IndexFunc(n.res, func(r resident) bool { return r.Name == name })
	if i < 0 {
		return resident{}, fmt.Errorf("manager: %w %q", manager.ErrUnknownProcess, name)
	}
	r := n.res[i]
	k := i // r's position within its core
	for k > 0 && n.res[k-1].Core == r.Core {
		k--
	}
	k = i - k
	n.res = slices.Delete(n.res, i, i+1)
	old := n.asg[r.Core]
	var procs []*core.FeatureVector
	switch {
	case k == len(old)-1 && k > 0:
		procs = old[:k:k]
	case len(old) > 1:
		procs = make([]*core.FeatureVector, 0, len(old)-1)
		procs = append(append(procs, old[:k]...), old[k+1:]...)
	}
	n.setCore(r.Core, procs)
	return r, nil
}

// evictAll empties the node (a lost machine) and returns what it held.
// The instance-name counter keeps counting.
func (n *node) evictAll() []resident {
	out := n.res
	n.res = nil
	n.asg, n.suffix = make(core.Assignment, n.cfg.Machine.NumCores), ""
	return out
}

// residents lists the residents in core/arrival order.
func (n *node) residents() []manager.Resident {
	out := make([]manager.Resident, len(n.res))
	for i, r := range n.res {
		out[i] = r.Resident
	}
	return out
}

// running lists the resident instance names per core.
func (n *node) running() [][]string {
	out := make([][]string, n.cfg.Machine.NumCores)
	for _, r := range n.res {
		out[r.Core] = append(out[r.Core], r.Name)
	}
	return out
}

// placeAtLocked admits a new instance of spec on core c of n — a slot the
// caller has already decided — under the arrival's scheduler-side facts,
// and returns its instance name and n's estimated watts after the
// placement (unscaled: the base operating point). The feature comes from
// the fleet's cache before anything else, then the "manager.place_at"
// fault-injection seam (key node/workload), the core checks and the power
// estimate; on any error n is exactly as it was.
func (f *Fleet) placeAtLocked(ctx context.Context, n *node, spec *workload.Spec, c int, opts PlaceOptions) (string, float64, error) {
	feat, err := f.feats.get(ctx, n.kind, spec)
	if err != nil {
		return "", 0, err
	}
	if f.cfg.Intercept != nil {
		key := n.cfg.Name
		if spec.Name != "" {
			key += "/" + spec.Name
		}
		if err := f.cfg.Intercept("manager.place_at", key); err != nil {
			return "", 0, err
		}
	}
	if err := n.checkCore(c); err != nil {
		return "", 0, err
	}
	if err := n.checkAdmissible(c); err != nil {
		return "", 0, err
	}
	sc := getScratch()
	_, watts, err := f.nodeEstimate(ctx, n, sc.withAddition(n.asg, feat, c), core.ReadWatts)
	putScratch(sc)
	if err != nil {
		return "", 0, err
	}
	n.nextID++
	name := spec.Name + "#" + strconv.Itoa(n.nextID)
	n.add(resident{Resident: manager.Resident{Name: name, Core: c, Spec: spec, Feature: feat}, tag: opts.Tag, priority: opts.Priority, key: opts.key})
	return name, watts, nil
}

// adoptLocked reinstates a recovered instance under its original name on
// core c — the WAL recovery path. It allocates no instance name: the name
// is the logbook's, and the counter only ratchets past any adopted
// "#<id>" suffix so future placements never collide with recovered names.
// Admissibility is still enforced; no power estimate is computed
// (recovery replays facts, not decisions).
func (f *Fleet) adoptLocked(ctx context.Context, n *node, spec *workload.Spec, name string, c int, opts PlaceOptions) error {
	feat, err := f.feats.get(ctx, n.kind, spec)
	if err != nil {
		return err
	}
	if err := n.checkCore(c); err != nil {
		return err
	}
	if slices.ContainsFunc(n.res, func(r resident) bool { return r.Name == name }) {
		return fmt.Errorf("manager: instance %q already resident", name)
	}
	if err := n.checkAdmissible(c); err != nil {
		return err
	}
	if i := strings.LastIndexByte(name, '#'); i >= 0 {
		if id, aerr := strconv.Atoi(name[i+1:]); aerr == nil && id > n.nextID {
			n.nextID = id
		}
	}
	n.add(resident{Resident: manager.Resident{Name: name, Core: c, Spec: spec, Feature: feat}, tag: opts.Tag, priority: opts.Priority})
	return nil
}
