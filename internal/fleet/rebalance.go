package fleet

import (
	"context"
	"fmt"

	"mpmc/internal/core"
	"mpmc/internal/freq"
	"mpmc/internal/manager"
	"mpmc/internal/parallel"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// Move describes one executed cross-machine migration.
type Move struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Name     string `json:"name"`     // instance name on the source node
	NewName  string `json:"new_name"` // instance name on the target node
	Workload string `json:"workload"`
	Core     int    `json:"core"` // target core
	// SPIBefore/SPIAfter are the fleet-wide predicted SPI totals around the
	// move; Improvement is their difference (positive = faster fleet).
	SPIBefore   float64 `json:"spi_before"`
	SPIAfter    float64 `json:"spi_after"`
	Improvement float64 `json:"improvement"`
}

// candidate is one prospective migration: resident r of nodes[src] moving
// to core dstCore of nodes[dst].
type candidate struct {
	src, dst, dstCore int
	res               resident
}

// Rebalance finds the single best cross-machine move — the one that most
// reduces the fleet-wide total predicted SPI — and executes it when the
// improvement clears minImprovement (in absolute SPI units; 0 accepts any
// strict improvement). This pass only ever moves a process between
// machines; it never re-lays out the cores of one machine (the Section 5
// search, core.CombinedModel.BestAssignmentContext, answers that question).
//
// When no move clears the bar the error wraps manager.ErrNoImprovement.
// Execution is one transaction over the source and target: a failure
// during remove/re-place rolls both back before the error is returned, so
// a failed rebalance leaves every machine exactly as it was. On a sharded
// fleet the pass runs under every shard lock, so source and target may
// live on different shards.
func (f *Fleet) Rebalance(ctx context.Context, minImprovement float64) (Move, error) {
	// Warm the feature cache for every (machine kind, resident workload)
	// pair outside the lock: in a heterogeneous fleet a resident has only
	// been profiled against its own machine kind so far.
	f.lock()
	var specs []*workload.Spec
	for _, n := range f.nodes {
		if n.down {
			continue
		}
		for _, r := range n.res {
			specs = append(specs, r.Spec)
		}
	}
	f.unlock()
	if err := f.feats.resolve(ctx, specs); err != nil {
		return Move{}, err
	}

	f.lock()
	defer f.unlock()

	if f.cfg.Intercept != nil {
		// Injection seam ahead of any scoring or mutation: an injected
		// error abandons the pass with every machine untouched.
		if err := f.cfg.Intercept("fleet.rebalance", ""); err != nil {
			return Move{}, err
		}
	}

	// Fleet-wide baseline: each node's total predicted SPI as placed.
	// Down nodes hold no residents and accept no moves; they contribute
	// zero to the baseline and are skipped below.
	base, err := parallel.Map(ctx, f.cfg.Workers, len(f.nodes), func(i int) (float64, error) {
		if f.nodes[i].down {
			return 0, nil
		}
		return f.nodeSPI(ctx, f.nodes[i], f.assignmentOf(f.nodes[i]))
	})
	if err != nil {
		return Move{}, err
	}
	baseTotal := 0.0
	for _, b := range base {
		baseTotal += b
	}

	// Enumerate every (resident, target node, target core) in a fixed
	// order — source nodes by index, residents in core/arrival order,
	// targets by index, cores by index — so the strict less-than reduction
	// below is deterministic at any worker count.
	var cands []candidate
	for i, n := range f.nodes {
		if n.down {
			continue
		}
		for _, r := range n.res {
			for j, dst := range f.nodes {
				if j == i || dst.down {
					continue
				}
				for c := 0; c < dst.cfg.Machine.NumCores; c++ {
					if dst.full(c) {
						continue
					}
					cands = append(cands, candidate{src: i, dst: j, dstCore: c, res: r})
				}
			}
		}
	}
	if len(cands) == 0 {
		f.noops.Inc()
		return Move{}, fmt.Errorf("fleet: %w: no movable process", manager.ErrNoImprovement)
	}

	// Score every candidate concurrently: the fleet total if the move were
	// made. Only the source and target terms change, and both route
	// through the group-score memo — so the source machine minus its
	// departing resident is solved once per (source, resident), not once
	// per (destination, core) candidate as it used to be (every candidate
	// sharing a source resident now recalls the same memoized terms, with
	// the singleflight collapsing concurrent first solves), and candidate
	// target groups recall any terms placement scoring already solved.
	totals, err := parallel.Map(ctx, f.cfg.Workers, len(cands), func(k int) (float64, error) {
		cd := cands[k]
		srcN, dstN := f.nodes[cd.src], f.nodes[cd.dst]
		srcAfter, err := f.nodeSPI(ctx, srcN,
			withoutResident(f.assignmentOf(srcN), cd.res.Resident))
		if err != nil {
			return 0, err
		}
		feat, err := f.feats.get(ctx, dstN.kind, cd.res.Spec)
		if err != nil {
			return 0, err
		}
		sc := getScratch()
		dstAfter, err := f.nodeSPI(ctx, dstN, sc.withAddition(f.assignmentOf(dstN), feat, cd.dstCore))
		putScratch(sc)
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
		f.noops.Inc()
		return Move{}, fmt.Errorf("fleet: %w: best move saves %.4g SPI (threshold %.4g)",
			manager.ErrNoImprovement, improvement, minImprovement)
	}

	cd := cands[best]
	srcN, dstN := f.nodes[cd.src], f.nodes[cd.dst]
	capMove := f.capActive()
	var srcW, dstW float64
	if capMove {
		// An SPI-improving move must not bust the watt budget: price both
		// ends' post-move draw at their current rungs and reject the move
		// when the fleet total would exceed the cap. The priced draws also
		// become the ledger rows after execution, so admission check and
		// accounting can never disagree.
		srcWU, err := f.ctab.EstimateAssignment(ctx, srcN.cm, withoutResident(f.assignmentOf(srcN), cd.res.Resident))
		if err != nil {
			return Move{}, err
		}
		feat, err := f.feats.get(ctx, dstN.kind, cd.res.Spec)
		if err != nil {
			return Move{}, err
		}
		dstWU, err := f.ctab.EstimateAddition(ctx, dstN.cm, f.assignmentOf(dstN), feat, cd.dstCore)
		if err != nil {
			return Move{}, err
		}
		srcW = freq.ScaleWatts(srcWU, staticWatts(srcN), dynScaleOf(srcN))
		dstW = freq.ScaleWatts(dstWU, staticWatts(dstN), dynScaleOf(dstN))
		next := f.capL.usage() - f.capL.nodeWatts(srcN.cfg.Name) - f.capL.nodeWatts(dstN.cfg.Name) + srcW + dstW
		if cap := f.capL.capWatts(); next > cap {
			f.noops.Inc()
			return Move{}, fmt.Errorf("fleet: %w: best move needs %.4g W against a %.4g W cap",
				manager.ErrNoImprovement, next, cap)
		}
	}
	tx := f.beginLocked()
	newName, err := f.migrateLocked(ctx, srcN, dstN, cd.res, cd.dstCore)
	if err != nil {
		tx.rollback()
		f.rollbacks.Inc()
		return Move{}, fmt.Errorf("fleet: rebalance rolled back: %w", err)
	}
	tx.close()
	f.moves.Inc()
	if capMove {
		f.capL.setNode(srcN.cfg.Name, srcW)
		f.capL.setNode(dstN.cfg.Name, dstW)
		// Re-anchor both rows on the canonical whole-assignment estimate
		// (the target's dstW was priced via the addition path, which can
		// differ in the last ulp); a failure keeps the priced values.
		_ = f.resyncNodeCapLocked(ctx, srcN)
		_ = f.resyncNodeCapLocked(ctx, dstN)
	}
	f.flushJournalLocked()
	return Move{
		From:        srcN.cfg.Name,
		To:          dstN.cfg.Name,
		Name:        cd.res.Name,
		NewName:     newName,
		Workload:    cd.res.Spec.Name,
		Core:        cd.dstCore,
		SPIBefore:   baseTotal,
		SPIAfter:    totals[best],
		Improvement: improvement,
	}, nil
}

// migrateLocked moves resident r of src to core dstCore of dst inside the
// caller's transaction: remove, re-place under the same scheduler facts
// (priority class, tag, preemption-ledger identity), stamp both nodes,
// and stage both halves in one journal batch so replay sees the move
// atomically (departed first: the new instance appends at the end of its
// core's arrival order). Ledger rows and the rollback on error are the
// caller's.
func (f *Fleet) migrateLocked(ctx context.Context, src, dst *node, r resident, dstCore int) (string, error) {
	f.touchLocked(src)
	f.touchLocked(dst)
	if _, err := src.remove(r.Name); err != nil {
		return "", err
	}
	newName, _, err := f.placeAtLocked(ctx, dst, r.Spec, dstCore, PlaceOptions{Tag: r.tag, Priority: r.priority, key: r.key})
	if err != nil {
		return "", err
	}
	src.version++
	dst.version++
	f.journalLocked(wal.Event{Type: wal.EvDeparted, Node: src.cfg.Name, Name: r.Name})
	f.journalLocked(wal.Event{
		Type: wal.EvAdmitted, Node: dst.cfg.Name, Name: newName, Core: dstCore,
		Bench: r.Spec.Name, Tag: r.tag, Priority: r.priority,
	})
	return newName, nil
}

// withoutResident returns a copy of asg with the resident's feature vector
// removed from its core (first pointer match, falling back to the first
// entry if the pointer is not found); asg is never mutated.
func withoutResident(asg core.Assignment, r manager.Resident) core.Assignment {
	next := make(core.Assignment, len(asg))
	for i, procs := range asg {
		next[i] = append([]*core.FeatureVector(nil), procs...)
	}
	procs := next[r.Core]
	idx := 0
	for k, fv := range procs {
		if fv == r.Feature {
			idx = k
			break
		}
	}
	if len(procs) > 0 {
		next[r.Core] = append(procs[:idx:idx], procs[idx+1:]...)
	}
	return next
}
