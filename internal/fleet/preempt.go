// Priority-class preemption: when the pipeline filters every candidate
// out (the fleet is full for this arrival) and the arrival's class
// outranks a resident, the fleet evicts the cheapest victim — lowest
// priority class first, least fleet-wide predicted-SPI loss within the
// class — places the arrival into the freed capacity, and requeues the
// victim through the admission queue with exponential backoff (the
// sched.Ledger). The whole exchange is one transaction (Fleet.beginLocked;
// the arrival may land anywhere, and the nodes it writes are recorded as
// it writes them): any failure after the eviction rolls resident records,
// rungs, ledger rows and the cursor back bit for bit before the error
// surfaces.
// On a sharded fleet this runs under every shard lock, so the victim is
// the fleet-wide cheapest and re-enters the one admission queue.

package fleet

import (
	"context"
	"errors"
	"fmt"

	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// victimLocked is preemptLocked's victim scan, split out for testing:
// it returns the index of the node hosting the chosen victim and the
// victim itself, or ok false when no resident is outranked. Deterministic
// at any worker count: nodes in index order, residents in core/arrival
// order, strict less-than comparisons.
func (f *Fleet) victimLocked(ctx context.Context, priority int) (nodeIdx int, victim resident, ok bool, err error) {
	bestPrio, bestDelta := 0, 0.0
	for i, n := range f.nodes {
		if n.down {
			continue
		}
		baseComputed := false
		base := 0.0
		for _, r := range n.res {
			prio := r.priority
			if prio >= priority {
				continue
			}
			if !baseComputed {
				if base, err = f.nodeSPI(ctx, n, f.assignmentOf(n)); err != nil {
					return 0, resident{}, false, err
				}
				baseComputed = true
			}
			after, err := f.nodeSPI(ctx, n, withoutResident(f.assignmentOf(n), r.Resident))
			if err != nil {
				return 0, resident{}, false, err
			}
			// delta is how much fleet-wide predicted SPI the eviction
			// removes; smaller = cheaper victim (the evicted process was
			// contributing little, or relieving much contention).
			delta := base - after
			if !ok || prio < bestPrio || (prio == bestPrio && delta < bestDelta) {
				nodeIdx, victim, ok = i, r, true
				bestPrio, bestDelta = prio, delta
			}
		}
	}
	return nodeIdx, victim, ok, nil
}

// preemptLocked attempts one preemption for an arrival the pipeline just
// rejected as unplaceable. It reports ok false — cluster untouched — when
// no resident is outranked; the caller then surfaces the original
// ErrFleetFull. An error after the eviction starts rolls every machine
// and the cursor back before returning, so a failed preemption is
// indistinguishable from one never attempted.
func (f *Fleet) preemptLocked(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, bool, error) {
	vi, victim, ok, err := f.victimLocked(ctx, opts.Priority)
	if err != nil || !ok {
		return Placed{}, false, err
	}
	vnode := f.nodes[vi]

	// The queue, ledger, and counters are only touched after the placement
	// commits, so the transaction never needs to restore them.
	tx := f.beginLocked()
	f.touchLocked(vnode)
	if _, err := vnode.remove(victim.Name); err != nil {
		tx.rollback()
		return Placed{}, false, fmt.Errorf("fleet: evicting preemption victim %s from %s: %w",
			victim.Name, vnode.cfg.Name, err)
	}
	p, err := f.decideAndCommitLocked(ctx, spec, opts)
	if err != nil {
		tx.rollback()
		f.reg.Counter("fleet_preempt_aborted_total").Inc()
		if errors.Is(err, ErrFleetFull) {
			// Even the freed slot did not admit the arrival (it can only
			// happen under adversarial extra predicates): report the
			// original condition, cluster untouched.
			return Placed{}, false, nil
		}
		return Placed{}, false, fmt.Errorf("fleet: preemption rolled back: %w", err)
	}

	// The arrival is committed (commitLocked stamped its node); the
	// victim's node changed too. Nothing below can fail.
	tx.close()
	vnode.version++
	if f.capActive() {
		// The eviction lowered the victim node's draw (commitLocked already
		// re-priced the arrival's node). A failed estimate leaves the stale,
		// higher row — conservative, healed by the next resync.
		_ = f.resyncNodeCapLocked(ctx, vnode)
	}
	// The arrival is committed; now disposition the victim. Ledger key:
	// reuse the victim's recorded identity so repeat preemptions escalate
	// its backoff; first-time victims get the tag or a fresh ticket-based
	// identity.
	key := victim.key
	if key == "" {
		if key = victim.tag; key == "" {
			f.seq++
			key = fmt.Sprintf("preempt#%d", f.seq)
		}
	}
	info := &PreemptedInfo{
		Node:     vnode.cfg.Name,
		Name:     victim.Name,
		Workload: victim.Spec.Name,
		Tag:      victim.tag,
		Priority: victim.priority,
	}
	requeue, _ := f.ledger.Record(key, f.pumpRound)
	if requeue && f.cfg.QueueCap > 0 && len(f.queue) < f.cfg.QueueCap {
		f.seq++
		f.queue = append(f.queue, queued{
			spec:     victim.Spec,
			tag:      victim.tag,
			ticket:   f.seq,
			priority: victim.priority,
			key:      key,
		})
		f.qSubmitted.Inc()
		f.reg.Counter("fleet_preempt_requeued_total").Inc()
		info.Requeued = true
		info.Ticket = f.seq
	} else {
		// Attempt budget exhausted, queueing disabled, or queue full: the
		// victim is dropped — counted and reported, never silent.
		f.ledger.Forget(key)
		f.reg.Counter("fleet_preempt_dropped_total").Inc()
	}
	f.reg.Counter("fleet_preempt_total").Inc()
	// One journal event carries the whole victim disposition; it lands in
	// the same batch as the arrival's admitted event, so replay sees the
	// exchange atomically. (The admitted event precedes it in the batch —
	// the arrival appends at the end of the resident order either way, so
	// replay reproduces per-core arrival order exactly.)
	f.journalLocked(wal.Event{
		Type: wal.EvPreempted, Node: vnode.cfg.Name, Name: victim.Name,
		Bench: victim.Spec.Name, Tag: victim.tag, Priority: victim.priority,
		Requeued: info.Requeued, Ticket: info.Ticket,
	})
	p.Preempted = info
	return p, true, nil
}
