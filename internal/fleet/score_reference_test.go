package fleet

import (
	"context"
	"math"

	"mpmc/internal/core"
	"mpmc/internal/freq"
	"mpmc/internal/machine"
)

// This file keeps the scorer this package had before the fused Eq. 10 pass
// — one copy of the candidate loop per policy family, the SPI terms from a
// walker of their own, the watts from a whole-machine
// EstimateAdditionContext per candidate — as the reference TestScoreNodeColdMatchesReference compares
// scoreNodeCold against, field by field and bit by bit.

// withAdditionShared returns asg with feat appended to core c, sharing
// every untouched core's slice with asg. The full-capacity slice expression
// forces the append to copy, so asg's own backing arrays are never written
// through.
func withAdditionShared(asg core.Assignment, feat *core.FeatureVector, c int) core.Assignment {
	next := make(core.Assignment, len(asg))
	copy(next, asg)
	cur := asg[c]
	next[c] = append(cur[:len(cur):len(cur)], feat)
	return next
}

// groupSPITerms solves one cache group and returns its flattened
// per-resident SPI terms in (busy core, proc arrival) order. It is
// assignmentSPI's inner loop verbatim: the Eq. 10 enumeration of per-core
// process choices, each combination solved to equilibrium, every
// resident's prediction averaged over the combinations it appears in.
// The terms are pure — they depend only on the busy cores' feature
// vectors, the machine's associativity, and the solver — which is what
// makes them safe to memoize under a content key.
func groupSPITerms(ctx context.Context, m *machine.Machine, busy []int, asg core.Assignment, solver core.SolverMethod, st *core.SolverState) ([]float64, error) {
	perProc := make([][]float64, len(busy))
	for i, c := range busy {
		perProc[i] = make([]float64, len(asg[c]))
	}
	choice := make([]int, len(busy))
	combo := make([]*core.FeatureVector, len(busy))
	combos := 0
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(busy) {
			preds, err := core.PredictGroupCached(ctx, combo, m.Assoc, solver, st)
			if err != nil {
				return err
			}
			for j, p := range preds {
				perProc[j][choice[j]] += p.SPI
			}
			combos++
			return nil
		}
		for k, f := range asg[busy[i]] {
			choice[i], combo[i] = k, f
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	var terms []float64
	for i, c := range busy {
		appearances := float64(combos) / float64(len(asg[c]))
		for j, sum := range perProc[i] {
			t := sum / appearances
			// A thread-group bundle resident stands for Members
			// co-located threads: its solved SPI is the per-member SPI of
			// the merged stream, so the group total counts it Members
			// times. Legacy features (Members ≤ 1) skip the multiply so
			// their terms stay bit-identical to the pre-threads code.
			if m := asg[c][j].Members; m > 1 {
				t *= float64(m)
			}
			terms = append(terms, t)
		}
	}
	return terms, nil
}

// busyCores returns the group's cores that host at least one process, in
// group order.
func busyCores(group []int, asg core.Assignment) []int {
	var busy []int
	for _, c := range group {
		if len(asg[c]) > 0 {
			busy = append(busy, c)
		}
	}
	return busy
}

// scoreKey is the group-memo key of the given cores' residents under
// power model number power (idle cores add no bytes, so a group and its
// busy cores give the same key).
func scoreKey(m *machine.Machine, solver core.SolverMethod, power int, cores []int, asg core.Assignment) string {
	return string(appendScoreKey(nil, m, solver, power, cores, asg))
}

// refGroupTerms is the old groupTerms: one group's term list through the
// term memo, or cold when caching is disabled. Its entries carry no watts:
// the reference fleet prices watts through core alone and never reads them
// from its memo.
func (f *Fleet) refGroupTerms(ctx context.Context, m *machine.Machine, busy []int, asg core.Assignment) ([]float64, error) {
	if f.scores == nil {
		return groupSPITerms(ctx, m, busy, asg, core.SolverAuto, f.solver)
	}
	e, err := f.scores.get([]byte(scoreKey(m, core.SolverAuto, 0, busy, asg)), func() (groupEntry, error) {
		terms, err := groupSPITerms(ctx, m, busy, asg, core.SolverAuto, f.solver)
		return groupEntry{spi: terms}, err
	})
	return e.spi, err
}

// refNodeTerms is the old nodeTerms: every group's term list, nil for idle
// groups.
func (f *Fleet) refNodeTerms(ctx context.Context, m *machine.Machine, asg core.Assignment) ([][]float64, error) {
	out := make([][]float64, len(m.Groups))
	for gi, group := range m.Groups {
		busy := busyCores(group, asg)
		if len(busy) == 0 {
			continue
		}
		terms, err := f.refGroupTerms(ctx, m, busy, asg)
		if err != nil {
			return nil, err
		}
		out[gi] = terms
	}
	return out, nil
}

// replayTerms accumulates per-group term lists into one total in group
// order.
func replayTerms(groups [][]float64) float64 {
	total := 0.0
	for _, terms := range groups {
		for _, t := range terms {
			total += t
		}
	}
	return total
}

// assignmentSPI is the memo-free whole-machine total: every group's terms
// from groupSPITerms, accumulated in (group, busy core, arrival) order.
func assignmentSPI(ctx context.Context, m *machine.Machine, asg core.Assignment, solver core.SolverMethod) (float64, error) {
	total := 0.0
	for _, group := range m.Groups {
		busy := busyCores(group, asg)
		if len(busy) == 0 {
			continue
		}
		terms, err := groupSPITerms(ctx, m, busy, asg, solver, nil)
		if err != nil {
			return 0, err
		}
		for _, t := range terms {
			total += t
		}
	}
	return total, nil
}

// refScoreNodeCold is the old scoreNodeCold: one copy of the candidate loop
// per policy family, scanning cores in index order with strict less-than
// comparisons so ties resolve to the lowest core, and solving a node's
// base groups before it looks for an admissible core.
func (f *Fleet) refScoreNodeCold(ctx context.Context, n *node, feat *core.FeatureVector, asg core.Assignment, fix int) (nodeScore, error) {
	admissible := func(c int) bool {
		return n.cfg.MaxPerCore == 0 || len(asg[c]) < n.cfg.MaxPerCore
	}

	switch f.cfg.Policy {
	case LeastWatts:
		baseW, err := n.cm.EstimateAssignmentContext(ctx, asg)
		if err != nil {
			return nodeScore{}, err
		}
		best := nodeScore{}
		for c := 0; c < n.cfg.Machine.NumCores; c++ {
			if !admissible(c) {
				continue
			}
			w, err := n.cm.EstimateAdditionContext(ctx, asg, feat, c)
			if err != nil {
				return nodeScore{}, err
			}
			added := w - baseW
			if !best.OK || added < best.Value {
				best = nodeScore{OK: true, Core: c, Value: added}
			}
		}
		return best, nil

	case LeastDegradation, BinPack, ColocateSharers, SpreadSharers:
		// Delta evaluation: solve (or recall) the machine's current groups
		// once, then score "add feat to core c" by re-solving only core c's
		// group with the newcomer and replaying the whole-machine term
		// accumulation with that one group's terms swapped in. The replay
		// walks groups in the same order with the same per-group term
		// streams a cold assignmentSPI of the candidate assignment would,
		// so the scores are bit-identical — only the unchanged groups'
		// solves are skipped.
		m := n.cfg.Machine
		baseGroups, err := f.refNodeTerms(ctx, m, asg)
		if err != nil {
			return nodeScore{}, err
		}
		baseSPI := replayTerms(baseGroups)
		solo, err := soloSPI(ctx, m, feat, core.SolverAuto, f.solver)
		if err != nil {
			return nodeScore{}, err
		}
		best := nodeScore{}
		for c := 0; c < m.NumCores; c++ {
			if !admissible(c) {
				continue
			}
			gi := m.GroupOf(c)
			cand := withAdditionShared(asg, feat, c)
			candTerms, err := f.refGroupTerms(ctx, m, busyCores(m.Groups[gi], cand), cand)
			if err != nil {
				return nodeScore{}, err
			}
			after := 0.0
			for g := range baseGroups {
				terms := baseGroups[g]
				if g == gi {
					terms = candTerms
				}
				for _, t := range terms {
					after += t
				}
			}
			added := after - baseSPI
			if !best.OK || added < best.Value {
				rel := 0.0
				if solo > 0 {
					rel = (added - solo) / solo
				}
				best = nodeScore{OK: true, Core: c, Value: added, Rel: rel}
			}
		}
		return best, nil

	case LeastEnergy:
		// Candidates are (core, state) pairs: the unscaled delta machinery
		// is exactly LeastDegradation's, then each ladder rung scales the
		// candidate's SPI and watts (identity-gated, so the base rung of an
		// out-of-order machine reproduces the legacy floats bit for bit)
		// and the winner minimizes the increase in the node's energy-delay
		// product, scaledWatts·scaledSPI². States iterate from the base
		// rung downward with strict less-than, so ties resolve to the
		// lowest core at the base state — the legacy-shaped decision.
		m := n.cfg.Machine
		baseGroups, err := f.refNodeTerms(ctx, m, asg)
		if err != nil {
			return nodeScore{}, err
		}
		baseSPI := replayTerms(baseGroups)
		baseW, err := n.cm.EstimateAssignmentContext(ctx, asg)
		if err != nil {
			return nodeScore{}, err
		}
		st := staticWatts(n)
		cur := m.Freq.State(fix)
		curSPI := freq.ScaleSPI(baseSPI, betaTotal(asg), freq.SPIFactorAt(m.Core, cur))
		curW := freq.ScaleWatts(baseW, st, freq.DynScaleAt(m.Core, cur))
		edpBefore := curW * curSPI * curSPI
		betaAfter := betaTotal(asg) + betaOf(feat)
		best := nodeScore{}
		for c := 0; c < m.NumCores; c++ {
			if !admissible(c) {
				continue
			}
			gi := m.GroupOf(c)
			cand := withAdditionShared(asg, feat, c)
			candTerms, err := f.refGroupTerms(ctx, m, busyCores(m.Groups[gi], cand), cand)
			if err != nil {
				return nodeScore{}, err
			}
			after := 0.0
			for g := range baseGroups {
				terms := baseGroups[g]
				if g == gi {
					terms = candTerms
				}
				for _, t := range terms {
					after += t
				}
			}
			wAfter, err := n.cm.EstimateAdditionContext(ctx, asg, feat, c)
			if err != nil {
				return nodeScore{}, err
			}
			for ix := m.Freq.BaseIx(); ix >= 0; ix-- {
				s := m.Freq.State(ix)
				sSPI := freq.ScaleSPI(after, betaAfter, freq.SPIFactorAt(m.Core, s))
				sW := freq.ScaleWatts(wAfter, st, freq.DynScaleAt(m.Core, s))
				added := sW*sSPI*sSPI - edpBefore
				if !best.OK || added < best.Value {
					best = nodeScore{OK: true, Core: c, Value: added, Freq: ix + 1}
				}
			}
		}
		return best, nil

	case CapAware:
		// LeastDegradation over (core, state) candidates, with the power
		// cap as an admission filter: a slot is only admissible while the
		// node's scaled post-placement draw fits the remaining fleet
		// headroom. Uncapped, the base state always wins the strict SPI
		// comparison (lower rungs only inflate the compute term), so the
		// values equal LeastDegradation's exactly; commitLocked's
		// tryReserve remains the authoritative gate — this filter only
		// steers the decision toward slots that can still be admitted.
		m := n.cfg.Machine
		baseGroups, err := f.refNodeTerms(ctx, m, asg)
		if err != nil {
			return nodeScore{}, err
		}
		baseSPI := replayTerms(baseGroups)
		solo, err := soloSPI(ctx, m, feat, core.SolverAuto, f.solver)
		if err != nil {
			return nodeScore{}, err
		}
		betaBase := betaTotal(asg)
		cur := m.Freq.State(fix)
		spiBefore := freq.ScaleSPI(baseSPI, betaBase, freq.SPIFactorAt(m.Core, cur))
		betaAfter := betaBase + betaOf(feat)
		st := staticWatts(n)
		capW, usedEx := 0.0, 0.0
		if f.capActive() {
			capW = f.capL.capWatts()
			usedEx = f.capL.usedExcept(n.cfg.Name)
		}
		best := nodeScore{}
		for c := 0; c < m.NumCores; c++ {
			if !admissible(c) {
				continue
			}
			gi := m.GroupOf(c)
			cand := withAdditionShared(asg, feat, c)
			candTerms, err := f.refGroupTerms(ctx, m, busyCores(m.Groups[gi], cand), cand)
			if err != nil {
				return nodeScore{}, err
			}
			after := 0.0
			for g := range baseGroups {
				terms := baseGroups[g]
				if g == gi {
					terms = candTerms
				}
				for _, t := range terms {
					after += t
				}
			}
			wAfter, err := n.cm.EstimateAdditionContext(ctx, asg, feat, c)
			if err != nil {
				return nodeScore{}, err
			}
			for ix := m.Freq.BaseIx(); ix >= 0; ix-- {
				s := m.Freq.State(ix)
				if capW > 0 {
					sW := freq.ScaleWatts(wAfter, st, freq.DynScaleAt(m.Core, s))
					if usedEx+sW > capW {
						continue
					}
				}
				sSPI := freq.ScaleSPI(after, betaAfter, freq.SPIFactorAt(m.Core, s))
				added := sSPI - spiBefore
				if !best.OK || added < best.Value {
					rel := 0.0
					if solo > 0 {
						rel = (added - solo) / solo
					}
					best = nodeScore{OK: true, Core: c, Value: added, Rel: rel, Freq: ix + 1}
				}
			}
		}
		return best, nil

	case Spread:
		// Spread never consults the model; the spread prioritizer handles
		// live placement. Report admissibility only.
		best := nodeScore{}
		for c := 0; c < n.cfg.Machine.NumCores; c++ {
			if admissible(c) {
				best = nodeScore{OK: true, Core: c, Value: math.NaN()}
				break
			}
		}
		return best, nil
	}
	return nodeScore{}, errUnknownPolicy(f.cfg.Policy)
}
