// Thread-group placement: admitting a group of T member threads as one
// transactional unit, shaped into derived bundle specs (internal/threads)
// according to the fleet policy.
//
// The policy decides the (local, remote) split:
//
//   - ColocateSharers admits ONE bundle of all T members: the shared
//     footprint is counted once, no coherence misses, private distances
//     dilated by the co-location.
//   - SpreadSharers admits T single-member bundles, preferring machines
//     no sibling of the same arrival occupies: undilated private
//     distances, but every member pays the coherence term for its T−1
//     remote siblings.
//   - Every other policy is group-OBLIVIOUS: T independent copies of the
//     base spec, exactly as if T unrelated legacy processes arrived
//     back-to-back (the comparison arm the exp study measures against).
//
// A single-thread group (T = 1) is indistinguishable from a legacy
// Place(base) under every policy: the bundle IS the base spec, no group
// shaping happens, and only the group ledger counters (registered lazily,
// so legacy fleets' metrics are untouched) record that a group passed by.
//
// The member ledger balances after every call: spawned = placed +
// faulted, with a group counted wholly placed or wholly faulted —
// chaos.Checker asserts exactly this invariant after every sim event.
package fleet

import (
	"context"
	"fmt"

	"mpmc/internal/sched"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// shapeGroup shapes one group arrival into the member specs the policy
// wants to place, and whether they carry sibling anti-affinity.
func shapeGroup(policy Policy, g threads.GroupSpec) (specs []*workload.Spec, antiAffinity bool, err error) {
	if g.Threads == 1 {
		return []*workload.Spec{g.Base}, false, nil
	}
	switch policy {
	case ColocateSharers:
		b, err := g.Bundle(g.Threads, 0)
		if err != nil {
			return nil, false, err
		}
		return []*workload.Spec{b}, false, nil
	case SpreadSharers:
		b, err := g.Bundle(1, g.Threads-1)
		if err != nil {
			return nil, false, err
		}
		specs = make([]*workload.Spec, g.Threads)
		for i := range specs {
			specs[i] = b
		}
		return specs, true, nil
	default:
		specs = make([]*workload.Spec, g.Threads)
		for i := range specs {
			specs[i] = g.Base
		}
		return specs, false, nil
	}
}

// PlaceGroup admits one thread-group arrival transactionally: either
// every member instance is admitted, or the transaction rolls every
// machine and the round-robin cursor back and the error reports why (the
// cause stays reachable with errors.Is — a full fleet surfaces
// ErrFleetFull). The returned placements are in member order; under
// ColocateSharers a single placement stands for all T members.
func (f *Fleet) PlaceGroup(ctx context.Context, g threads.GroupSpec) ([]Placed, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	specs, antiAffinity, err := shapeGroup(f.cfg.Policy, g)
	if err != nil {
		return nil, err
	}
	if err := f.feats.resolve(ctx, specs); err != nil {
		return nil, err
	}
	members := uint64(g.Threads)

	f.lock()
	defer f.unlock()
	// The group ledger is registered lazily (like fleet_node_down_total)
	// so fleets that never see a thread group keep their /metrics
	// exposition and sim reports byte-identical.
	f.reg.Counter("fleet_group_spawned_members_total").Add(members)

	tx := f.beginLocked()
	out := make([]Placed, len(specs))
	used := map[int]bool{}
	for i, s := range specs {
		err := ctx.Err()
		switch {
		case err != nil:
		case antiAffinity:
			out[i], err = f.placeAntiAffinityLocked(ctx, s, used)
		default:
			out[i], err = f.placeOneLocked(ctx, s, PlaceOptions{})
		}
		if err != nil {
			tx.rollback()
			f.reg.Counter("fleet_group_faulted_members_total").Add(members)
			f.reg.Counter("fleet_groups_rejected_total").Inc()
			return nil, f.rolledBack("group", "member placement", i, err)
		}
	}
	tx.close()
	f.placed.Add(uint64(len(out)))
	f.reg.Counter("fleet_group_placed_members_total").Add(members)
	f.reg.Counter("fleet_groups_placed_total").Inc()
	f.flushJournalLocked()
	return out, nil
}

// placeAntiAffinityLocked decides one spread-sharers member: all up nodes
// are scored through scoreFeasible (index-addressed, serial reduction,
// strict less-than — ties to the lowest node index at any worker count), nodes
// already hosting a sibling of this arrival are preferred against, and
// the winner is committed. When every admissible node already hosts a
// sibling, members double up rather than reject — anti-affinity is a
// preference; capacity is the constraint.
func (f *Fleet) placeAntiAffinityLocked(ctx context.Context, spec *workload.Spec, used map[int]bool) (Placed, error) {
	up := make([]int, 0, len(f.nodes))
	for i, n := range f.nodes {
		if !n.down {
			up = append(up, i)
		}
	}
	scores, err := f.scoreFeasible(ctx, spec, up, nil)
	if err != nil {
		return Placed{}, err
	}
	best := -1
	for k, s := range scores {
		if s.OK && !used[up[k]] && (best < 0 || s.Value < scores[best].Value) {
			best = k
		}
	}
	if best < 0 {
		best = sched.MinValue{}.Pick(scores)
	}
	if best < 0 {
		return Placed{}, fmt.Errorf("fleet: %w for %s", ErrFleetFull, spec.Name)
	}
	p, err := f.commitLocked(ctx, spec, PlaceOptions{}, up[best], scores[best])
	if err != nil {
		return Placed{}, err
	}
	used[up[best]] = true
	return p, nil
}
