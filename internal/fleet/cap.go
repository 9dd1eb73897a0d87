// Power-capped, frequency-aware fleet operation.
//
// Every node carries a current DVFS rung (node.freqIx) on its machine's
// frequency ladder (machine.Machine.Freq). All frequency scaling is
// derived from the UNSCALED legacy estimates through internal/freq's
// identity-gated helpers, so a fleet whose nodes all sit at the base
// state produces bit-identical bytes to the pre-DVFS code.
//
// The watt budget is a capLedger: one row per node holding the node's
// scaled Eq. 10 estimate, guarded by its own mutex so a Sharded fleet's
// shards share their whole fleet's ledger and two shards racing the
// remaining headroom cannot both win it — tryReserve is the single
// atomic admission gate, consulted by commitLocked before any node
// mutation. Enforcement ordering (DESIGN.md §13):
//
//  1. Admission: commitLocked reserves the node's post-placement scaled
//     watts; a failed reservation surfaces as ErrFleetFull with the
//     cluster untouched.
//  2. Enforcement: EnforceCap transactionally down-clocks or migrates
//     residents until the ledger fits the budget, choosing the action
//     with the least predicted SPI loss per watt shed.
//  3. Accounting: every mutation that changes a node's draw (departure,
//     eviction, migration, fail/restore, recovery) re-syncs that node's
//     ledger row from live estimates.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mpmc/internal/core"
	"mpmc/internal/freq"
	"mpmc/internal/wal"
)

// freqStateOf returns n's current DVFS operating point.
func freqStateOf(n *node) freq.State { return n.cfg.Machine.Freq.State(n.freqIx) }

// spiScaleOf is n's combined Eq. 3 compute-term multiplier at its
// current state (exactly 1 for an out-of-order core at base).
func spiScaleOf(n *node) float64 {
	return freq.SPIFactorAt(n.cfg.Machine.Core, freqStateOf(n))
}

// dynScaleOf is n's combined Eq. 9 dynamic-power multiplier at its
// current state (exactly 1 for an out-of-order core at base).
func dynScaleOf(n *node) float64 {
	return freq.DynScaleAt(n.cfg.Machine.Core, freqStateOf(n))
}

// staticWatts is n's frequency-invariant power floor: every core's
// fitted Eq. 9 idle intercept. It equals the combined model's estimate
// of an empty assignment, which is what makes ledger initialization
// need no solver call.
func staticWatts(n *node) float64 {
	return float64(float64(n.cfg.Machine.NumCores) * n.cfg.Power.PIdle())
}

// betaTotal sums the residents' compute (Beta) terms exactly as the node
// SPI accumulation counts them: averaging a constant over Eq. 10
// combinations is the constant, and a thread-group bundle's term counts
// once per member. It is the affine shift ScaleSPI applies to a whole
// node's total.
func betaTotal(asg core.Assignment) float64 {
	total := 0.0
	for _, procs := range asg {
		for _, fv := range procs {
			b := fv.Beta
			if fv.Members > 1 {
				b *= float64(fv.Members)
			}
			total += b
		}
	}
	return total
}

// betaOf is one arrival's contribution to betaTotal.
func betaOf(fv *core.FeatureVector) float64 {
	if fv.Members > 1 {
		return fv.Beta * float64(fv.Members)
	}
	return fv.Beta
}

// capLedger is the fleet-wide watt budget and its per-node draw rows.
// It has its own lock so a Sharded fleet's shards can share one instance:
// cross-shard admission is serialized here, not by any fleet lock.
//
// Usage is always derived by summing the rows in sorted-name order, never
// accumulated incrementally: an accumulator's value depends on the whole
// update history (each += rounds), so a recovered ledger with identical
// rows could still differ from the pre-crash one in the last ulp and
// break byte-identical /v1/fleet/state recovery. The rows are therefore
// kept in name order — a fleet's node set is fixed, so an insert happens
// once per node — and every sum is one left-to-right pass.
type capLedger struct {
	mu    sync.Mutex
	watts float64   // budget; 0 = no admission checks (tracking only)
	names []string  // sorted
	rows  []float64 // rows[i] is names[i]'s draw
}

func newCapLedger() *capLedger { return &capLedger{} }

func (l *capLedger) capWatts() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.watts
}

func (l *capLedger) setCap(w float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.watts = w
}

// sumLocked is the fleet draw: rows summed in sorted-name order, so the
// value is a pure function of the rows (caller holds l.mu).
func (l *capLedger) sumLocked() float64 {
	total := 0.0
	for _, w := range l.rows {
		total += w
	}
	return total
}

// rowLocked returns name's draw, 0 for a node without a row (caller holds
// l.mu).
func (l *capLedger) rowLocked(name string) float64 {
	if i := sort.SearchStrings(l.names, name); i < len(l.names) && l.names[i] == name {
		return l.rows[i]
	}
	return 0
}

// setLocked overwrites name's row, inserting it in name order on first
// sight (caller holds l.mu).
func (l *capLedger) setLocked(name string, w float64) {
	i := sort.SearchStrings(l.names, name)
	if i == len(l.names) || l.names[i] != name {
		l.names = append(l.names, "")
		copy(l.names[i+1:], l.names[i:])
		l.names[i] = name
		l.rows = append(l.rows, 0)
		copy(l.rows[i+1:], l.rows[i:])
	}
	l.rows[i] = w
}

func (l *capLedger) usage() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sumLocked()
}

func (l *capLedger) nodeWatts(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rowLocked(name)
}

func (l *capLedger) usedExcept(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sumLocked() - l.rowLocked(name)
}

// setNode overwrites one node's draw row unconditionally (departures and
// enforcement re-syncs; never an admission).
func (l *capLedger) setNode(name string, w float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.setLocked(name, w)
}

// tryReserve atomically replaces one node's row with its post-placement
// draw when the fleet total still fits the budget; it reports false —
// ledger untouched — otherwise. This is the admission gate: because the
// check and the write happen under one ledger lock, two shards racing
// the last watts of headroom serialize here and exactly one wins.
func (l *capLedger) tryReserve(name string, w float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.sumLocked() - l.rowLocked(name) + w
	if l.watts > 0 && next > l.watts {
		return false
	}
	l.setLocked(name, w)
	return true
}

// copyRows appends the ledger's names and rows to the given slices (a
// transaction's window).
func (l *capLedger) copyRows(names []string, rows []float64) ([]string, []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(names, l.names...), append(rows, l.rows...)
}

// restoreRows puts back rows copied earlier. Rows are never deleted, so
// the copy already holds every name in sorted order.
func (l *capLedger) restoreRows(names []string, rows []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.names = append(l.names[:0], names...)
	l.rows = append(l.rows[:0], rows...)
}

// capActive reports whether admissions and enforcement are constrained
// by a positive watt budget right now.
func (f *Fleet) capActive() bool {
	return f.capL != nil && f.capL.capWatts() > 0
}

// PowerCap returns the active fleet-wide watt budget (0 = uncapped).
func (f *Fleet) PowerCap() float64 {
	if f.capL == nil {
		return 0
	}
	return f.capL.capWatts()
}

// CapUsage returns the ledger's current fleet draw estimate in watts
// (0 when the fleet has never been capped). While a cap is active it is
// maintained exactly: the chaos invariants compare it against a fresh
// Totals pass.
func (f *Fleet) CapUsage() float64 {
	if f.capL == nil {
		return 0
	}
	return f.capL.usage()
}

// SetPowerCap sets (watts > 0) or clears (watts == 0) the fleet-wide
// power budget at runtime. Setting a cap re-syncs every node's ledger
// row from live estimates first, so the budget is measured against
// current reality; it does NOT shed load by itself — call EnforceCap to
// bring an already-over-budget fleet back under.
func (f *Fleet) SetPowerCap(ctx context.Context, watts float64) error {
	if watts < 0 {
		return fmt.Errorf("fleet: negative power cap %v", watts)
	}
	f.lock()
	defer f.unlock()
	if f.capL == nil {
		if watts == 0 {
			return nil
		}
		f.capL = newCapLedger()
	}
	f.capL.setCap(watts)
	if watts > 0 {
		for _, n := range f.nodes {
			if err := f.resyncNodeCapLocked(ctx, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// resyncNodeCapLocked recomputes one node's ledger row from its live
// scaled estimate. Callers hold the fleet lock; cheap mutation paths
// guard with capActive() so uncapped fleets never pay an estimate.
func (f *Fleet) resyncNodeCapLocked(ctx context.Context, n *node) error {
	if f.capL == nil {
		return nil
	}
	if n.down {
		f.capL.setNode(n.cfg.Name, 0)
		return nil
	}
	asg := f.assignmentOf(n)
	empty := true
	for _, procs := range asg {
		if len(procs) > 0 {
			empty = false
			break
		}
	}
	if empty {
		// Same constant New and RestoreNode seed, so an idle node's row is
		// bitwise-stable no matter which path last wrote it (a per-group
		// idle-watts sum can differ from NumCores·PIdle in the last ulp).
		f.capL.setNode(n.cfg.Name, staticWatts(n))
		return nil
	}
	_, w, err := f.nodeEstimate(ctx, n, asg, core.ReadWatts)
	if err != nil {
		return err
	}
	f.capL.setNode(n.cfg.Name, freq.ScaleWatts(w, staticWatts(n), dynScaleOf(n)))
	return nil
}

// setFreqLocked re-clocks a node: the rung moves, the version stamp
// detached scoring revalidates is bumped, and the change is journaled so
// recovery restores the rung. Decision keys embed the rung when off base,
// so no memo needs invalidation; the group memo's estimates are unscaled
// and frequency-independent.
func (f *Fleet) setFreqLocked(n *node, ix int) {
	if ix == n.freqIx {
		return
	}
	f.touchLocked(n)
	n.freqIx = ix
	n.version++
	f.journalLocked(wal.Event{Type: wal.EvFreq, Node: n.cfg.Name, Freq: ix + 1})
}

// FreqStates reports every node's current DVFS rung index, keyed by node
// name (the chaos invariants and tests read it).
func (f *Fleet) FreqStates() map[string]int {
	f.lock()
	defer f.unlock()
	out := make(map[string]int, len(f.nodes))
	for _, n := range f.nodes {
		out[n.cfg.Name] = n.freqIx
	}
	return out
}

// CapReport summarizes one EnforceCap pass.
type CapReport struct {
	Cap         float64 `json:"cap"`
	WattsBefore float64 `json:"watts_before"`
	WattsAfter  float64 `json:"watts_after"`
	Downclocks  int     `json:"downclocks,omitempty"`
	Migrations  int     `json:"migrations,omitempty"`
	// Moves details each migration (the SPI fields are the fleet deltas
	// already priced by the action scan, not a fresh solve), so callers
	// tracking residents by (node, instance) can re-point them.
	Moves []Move `json:"moves,omitempty"`
	// Satisfied is false when every rung is at its floor and no migration
	// sheds watts, yet the fleet still draws above the cap (the idle
	// floor alone can exceed a low enough budget).
	Satisfied bool `json:"satisfied"`
}

// EnforceCap transactionally brings the fleet back under its watt
// budget: while the ledger exceeds the cap, it applies whichever single
// action — down-clock one node one rung, or migrate one resident to
// another machine — sheds watts at the least predicted SPI cost per watt
// (strict less-than over a deterministic enumeration: down-clocks in
// node order first, then migrations in source/resident/target/core
// order). The pass is one transaction: any failure rolls the nodes and
// rungs it changed and the ledger rows back and discards the staged
// journal, so a failed enforcement leaves the fleet exactly as it was.
// Migrations may cross shards — a sharded fleet enforces under every shard
// lock. With no active cap it reports Satisfied and does nothing.
func (f *Fleet) EnforceCap(ctx context.Context) (CapReport, error) {
	f.lock()
	defer f.unlock()
	if !f.capActive() {
		return CapReport{Satisfied: true}, nil
	}
	// Measure against live estimates, not whatever the rows last held.
	for _, n := range f.nodes {
		if err := f.resyncNodeCapLocked(ctx, n); err != nil {
			return CapReport{}, err
		}
	}
	budget := f.capL.capWatts()
	rep := CapReport{Cap: budget, WattsBefore: f.capL.usage()}
	if rep.WattsBefore <= budget {
		rep.WattsAfter, rep.Satisfied = rep.WattsBefore, true
		return rep, nil
	}

	tx := f.beginLocked()
	fail := func(cause error) (CapReport, error) {
		tx.rollback()
		f.rollbacks.Inc()
		return CapReport{}, fmt.Errorf("fleet: cap enforcement rolled back: %w", cause)
	}

	// Bound the loop structurally: each node can only descend its ladder
	// once per rung, and each migration strictly sheds watts, so real
	// enforcement converges long before this guard trips.
	limit := 0
	residents := 0
	for _, n := range f.nodes {
		limit += n.cfg.Machine.Freq.NumStates()
		residents += len(n.res)
	}
	limit += residents * len(f.nodes)
	for iter := 0; f.capL.usage() > budget && iter < limit; iter++ {
		act, ok, err := f.bestCapActionLocked(ctx)
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		if err := f.applyCapActionLocked(ctx, act, &rep); err != nil {
			return fail(err)
		}
	}
	tx.close()
	rep.WattsAfter = f.capL.usage()
	rep.Satisfied = rep.WattsAfter <= budget
	f.flushJournalLocked()
	// Lazily registered so uncapped fleets keep their exposition (and the
	// server e2e golden) unchanged.
	if rep.Downclocks > 0 {
		f.reg.Counter("fleet_cap_downclocks_total").Add(uint64(rep.Downclocks))
	}
	if rep.Migrations > 0 {
		f.reg.Counter("fleet_cap_migrations_total").Add(uint64(rep.Migrations))
	}
	return rep, nil
}

// capAction is one candidate enforcement step.
type capAction struct {
	migrate bool
	// down-clock: node's index and target rung; afterW its new scaled draw.
	node, rung int
	// migration: resident res leaves node, lands on dst at dstCore.
	res          resident
	dst, dstCore int
	afterW       float64 // source (or down-clocked) node's scaled draw after
	afterDstW    float64 // target node's scaled draw after (migrations)
	dw, dspi     float64 // fleet deltas (dw < 0: watts shed)
}

// bestCapActionLocked scans every admissible enforcement action and
// returns the one with the least dspi/(−dw) — predicted SPI lost per
// watt shed; migrations that also improve SPI score negative and win
// outright. ok is false when nothing sheds watts.
func (f *Fleet) bestCapActionLocked(ctx context.Context) (capAction, bool, error) {
	var best capAction
	found := false
	bestScore := 0.0
	consider := func(a capAction) {
		if a.dw >= 0 {
			return
		}
		score := a.dspi / -a.dw
		if !found || score < bestScore {
			best, bestScore, found = a, score, true
		}
	}

	type nodeEval struct {
		spiU, wU, beta float64 // unscaled SPI, unscaled watts, compute sum
	}
	evals := make([]nodeEval, len(f.nodes))
	for i, n := range f.nodes {
		if n.down {
			continue
		}
		asg := f.assignmentOf(n)
		spiU, wU, err := f.nodeEstimate(ctx, n, asg, core.ReadSPI|core.ReadWatts)
		if err != nil {
			return capAction{}, false, err
		}
		evals[i] = nodeEval{spiU: spiU, wU: wU, beta: betaTotal(asg)}
	}

	// Down-clocks: one rung down per node.
	for i, n := range f.nodes {
		if n.down || n.freqIx == 0 {
			continue
		}
		m := n.cfg.Machine
		st := staticWatts(n)
		ev := evals[i]
		curW := freq.ScaleWatts(ev.wU, st, dynScaleOf(n))
		curSPI := freq.ScaleSPI(ev.spiU, ev.beta, spiScaleOf(n))
		lower := m.Freq.State(n.freqIx - 1)
		nextW := freq.ScaleWatts(ev.wU, st, freq.DynScaleAt(m.Core, lower))
		nextSPI := freq.ScaleSPI(ev.spiU, ev.beta, freq.SPIFactorAt(m.Core, lower))
		consider(capAction{
			node: i, rung: n.freqIx - 1, afterW: nextW,
			dw: nextW - curW, dspi: nextSPI - curSPI,
		})
	}

	// Migrations: each resident to each other live machine's admissible
	// cores, both ends priced at their own current rungs.
	sc := getScratch()
	defer putScratch(sc)
	for i, n := range f.nodes {
		if n.down {
			continue
		}
		srcSt := staticWatts(n)
		srcEv := evals[i]
		srcW1 := freq.ScaleWatts(srcEv.wU, srcSt, dynScaleOf(n))
		srcSPI1 := freq.ScaleSPI(srcEv.spiU, srcEv.beta, spiScaleOf(n))
		for _, r := range n.res {
			srcAsg2 := withoutResident(f.assignmentOf(n), r.Resident)
			srcSPIU2, srcWU2, err := f.nodeEstimate(ctx, n, srcAsg2, core.ReadSPI|core.ReadWatts)
			if err != nil {
				return capAction{}, false, err
			}
			srcW2 := freq.ScaleWatts(srcWU2, srcSt, dynScaleOf(n))
			srcSPI2 := freq.ScaleSPI(srcSPIU2, srcEv.beta-betaOf(r.Feature), spiScaleOf(n))
			for j, dst := range f.nodes {
				if j == i || dst.down {
					continue
				}
				feat, err := f.feats.get(ctx, dst.kind, r.Spec)
				if err != nil {
					return capAction{}, false, err
				}
				dstEv := evals[j]
				dstSt := staticWatts(dst)
				dstW1 := freq.ScaleWatts(dstEv.wU, dstSt, dynScaleOf(dst))
				dstSPI1 := freq.ScaleSPI(dstEv.spiU, dstEv.beta, spiScaleOf(dst))
				dstAsg := f.assignmentOf(dst)
				for c := 0; c < dst.cfg.Machine.NumCores; c++ {
					if dst.full(c) {
						continue
					}
					dstSPIU2, dstWU2, err := f.nodeEstimate(ctx, dst, sc.withAddition(dstAsg, feat, c), core.ReadSPI|core.ReadWatts)
					if err != nil {
						return capAction{}, false, err
					}
					dstW2 := freq.ScaleWatts(dstWU2, dstSt, dynScaleOf(dst))
					dstSPI2 := freq.ScaleSPI(dstSPIU2, dstEv.beta+betaOf(feat), spiScaleOf(dst))
					consider(capAction{
						migrate: true, node: i, res: r, dst: j, dstCore: c,
						afterW: srcW2, afterDstW: dstW2,
						dw:   (srcW2 - srcW1) + (dstW2 - dstW1),
						dspi: (srcSPI2 - srcSPI1) + (dstSPI2 - dstSPI1),
					})
				}
			}
		}
	}
	return best, found, nil
}

// applyCapActionLocked executes one chosen enforcement action, updating
// ledger rows from the action's already-priced after values and staging
// the journal events (the caller's transaction flushes or discards them).
func (f *Fleet) applyCapActionLocked(ctx context.Context, act capAction, rep *CapReport) error {
	n := f.nodes[act.node]
	if !act.migrate {
		f.setFreqLocked(n, act.rung)
		f.capL.setNode(n.cfg.Name, act.afterW)
		rep.Downclocks++
		return nil
	}
	dst := f.nodes[act.dst]
	newName, err := f.migrateLocked(ctx, n, dst, act.res, act.dstCore)
	if err != nil {
		return err
	}
	f.capL.setNode(n.cfg.Name, act.afterW)
	f.capL.setNode(dst.cfg.Name, act.afterDstW)
	// Re-anchor both rows on the canonical whole-assignment estimate: the
	// scan priced the target via the addition path, which can differ from
	// a fresh resync — recovery, the next enforcement pass — in the last
	// ulp. An error propagates into the caller's rollback.
	if err := f.resyncNodeCapLocked(ctx, n); err != nil {
		return err
	}
	if err := f.resyncNodeCapLocked(ctx, dst); err != nil {
		return err
	}
	rep.Migrations++
	rep.Moves = append(rep.Moves, Move{
		From: n.cfg.Name, To: dst.cfg.Name, Name: act.res.Name, NewName: newName,
		Workload: act.res.Spec.Name, Core: act.dstCore, Improvement: -act.dspi,
	})
	return nil
}
