package fleet

import (
	"context"
	"math"
	"slices"

	"mpmc/internal/core"
	"mpmc/internal/freq"
	"mpmc/internal/machine"
	"mpmc/internal/sched"
)

// soloSPI returns a process's predicted SPI running alone on the machine:
// the whole cache to itself, the Eq. 3 line at min(GMax, A) ways. It is
// the interference-free baseline behind BinPack's relative-degradation
// ceiling. The shared solver state makes repeat baselines a recall — the
// solution is a pure function of the feature vector and associativity, so
// warm and cold calls are bit-identical (st == nil solves cold).
func soloSPI(ctx context.Context, m *machine.Machine, f *core.FeatureVector, solver core.SolverMethod, st *core.SolverState) (float64, error) {
	one, pred := [1]*core.FeatureVector{f}, [1]core.Prediction{}
	preds, err := (*core.ComboTable)(nil).PredictGroup(ctx, pred[:0], one[:], m.Assoc, solver, st)
	if err != nil {
		return 0, err
	}
	return preds[0].SPI, nil
}

// nodeScore is one node's best candidate slot for an arrival under the
// active policy — exactly the pipeline's Score shape (OK false when the
// node has no admissible core, Value the policy metric, Rel BinPack's
// relative-degradation ceiling metric). The alias lets the decision memo
// and sched's selectors speak one type.
type nodeScore = sched.Score

// scoreNodeCold computes one node's best candidate slot from scratch (up
// to the term and watts memos), scanning cores in index order with strict
// less-than comparisons so ties resolve to the lowest core. The node's
// assignment was read once by the caller, so the whole scan scores against
// a consistent snapshot; the fleet placement lock guarantees nothing
// commits mid-scan. fix is the node's DVFS rung at capture time:
// frequency-blind policies never read it, while the frequency-aware
// policies price the node's "before" state at it (detached scoring passes
// the captured rung, so a concurrent re-clock is caught by version
// revalidation, not by a torn read here).
//
// Every model policy is scored by the Figure 1 delta: one Eq. 10 pass per
// busy group of the current assignment, then one pass of the candidate's
// own group per admissible core, and the node totals replayed over the
// groups in index order with that one group swapped in (the others are the
// paper's P_rest). The replay adds the same per-group values in the same
// order a whole-machine estimate of the candidate assignment would, so the
// scores are bit-identical to it — only the unchanged groups' solves are
// skipped. A pass reads out SPI terms, watts, or both, as the policy's
// objective needs. A node with no admissible core is never solved at all.
// The passes solve through tab, the calling operation's combination table,
// so a candidate group's combinations that the base groups (or an earlier
// candidate, or another node of the same kind) already solved are not
// solved again; the working memory is a scratch from a free list.
func (f *Fleet) scoreNodeCold(ctx context.Context, tab *core.ComboTable, n *node, feat *core.FeatureVector, asg core.Assignment, fix int) (nodeScore, error) {
	m, policy := n.cfg.Machine, f.cfg.Policy
	var read core.Readout
	capW, usedEx := 0.0, 0.0
	switch policy {
	case Spread:
		// Never consults the model; the spread prioritizer handles live
		// placement. Report admissibility only.
	case LeastWatts:
		read = core.ReadWatts
	case LeastDegradation, BinPack, ColocateSharers, SpreadSharers:
		read = core.ReadSPI
	case LeastEnergy:
		read = core.ReadSPI | core.ReadWatts
	case CapAware:
		// Watts only price the cap filter; uncapped they are not needed.
		read = core.ReadSPI
		if f.capL != nil {
			if capW = f.capL.capWatts(); capW > 0 {
				read |= core.ReadWatts
				usedEx = f.capL.usedExcept(n.cfg.Name)
			}
		}
	default:
		return nodeScore{}, errUnknownPolicy(policy)
	}
	admissible := func(c int) bool {
		return n.cfg.MaxPerCore == 0 || len(asg[c]) < n.cfg.MaxPerCore
	}
	first := 0
	for first < m.NumCores && !admissible(first) {
		first++
	}
	if first == m.NumCores {
		return nodeScore{}, nil
	}
	if policy == Spread {
		return nodeScore{OK: true, Core: first, Value: math.NaN()}, nil
	}
	sc := getScratch()
	defer putScratch(sc)
	// One candidate assignment covers the shape, every resident and the
	// newcomer; the per-solve feature validation still runs on top.
	if err := n.cm.Validate(sc.withAddition(asg, feat, first)); err != nil {
		return nodeScore{}, err
	}
	groups := len(m.Groups)
	sc.base = slices.Grow(sc.base[:0], groups)[:groups]
	if len(sc.spi) < groups {
		sc.spi = append(sc.spi, make([][]float64, groups-len(sc.spi))...)
	}
	base := sc.base
	baseSPI, baseW := 0.0, 0.0
	for gi := range base {
		var err error
		if base[gi], err = f.groupEstimate(ctx, tab, sc, n, asg, gi, read, &sc.spi[gi]); err != nil {
			return nodeScore{}, err
		}
		for _, t := range base[gi].SPI {
			baseSPI += t
		}
		baseW += base[gi].Watts
	}
	// solo feeds BinPack's relative-degradation ceiling metric; the two
	// policies that optimize watts or energy report none.
	solo := 0.0
	if policy != LeastWatts && policy != LeastEnergy {
		var err error
		if solo, err = soloSPI(ctx, m, feat, n.cm.Solver, f.solver); err != nil {
			return nodeScore{}, err
		}
	}
	// The frequency-aware policies score (core, state) pairs: each ladder
	// rung scales the candidate's SPI and watts (identity-gated, so the
	// base rung of an out-of-order machine reproduces the unscaled floats
	// bit for bit). States iterate from the base rung downward with strict
	// less-than, so ties resolve to the lowest core at the base state.
	var spiBefore, edpBefore, betaAfter, static float64
	if policy.FreqAware() {
		betaBase, cur := betaTotal(asg), m.Freq.State(fix)
		spiBefore = freq.ScaleSPI(baseSPI, betaBase, freq.SPIFactorAt(m.Core, cur))
		betaAfter, static = betaBase+betaOf(feat), staticWatts(n)
		if policy == LeastEnergy {
			curW := freq.ScaleWatts(baseW, static, freq.DynScaleAt(m.Core, cur))
			edpBefore = curW * spiBefore * spiBefore
		}
	}
	best := nodeScore{}
	take := func(c, rung int, added float64) {
		if !best.OK || added < best.Value {
			best = nodeScore{OK: true, Core: c, Value: added, Freq: rung}
			if solo > 0 {
				best.Rel = (added - solo) / solo
			}
		}
	}
	for c := first; c < m.NumCores; c++ {
		if !admissible(c) {
			continue
		}
		gi := m.GroupOf(c)
		cand, err := f.groupEstimate(ctx, tab, sc, n, sc.withAddition(asg, feat, c), gi, read, &sc.cand)
		if err != nil {
			return nodeScore{}, err
		}
		after, wAfter := 0.0, 0.0
		for g := range base {
			est := &base[g]
			if g == gi {
				est = &cand
			}
			for _, t := range est.SPI {
				after += t
			}
			wAfter += est.Watts
		}
		switch policy {
		case LeastWatts:
			take(c, 0, wAfter-baseW)
		case LeastEnergy, CapAware:
			// LeastEnergy minimizes the increase in the node's energy-delay
			// product, scaledWatts·scaledSPI². CapAware is LeastDegradation
			// over the slots whose scaled post-placement draw still fits
			// the remaining fleet headroom: uncapped, the base state always
			// wins the strict SPI comparison (lower rungs only inflate the
			// compute term), and commitLocked's tryReserve remains the
			// authoritative gate — this filter only steers the decision
			// toward slots that can still be admitted.
			for ix := m.Freq.BaseIx(); ix >= 0; ix-- {
				s := m.Freq.State(ix)
				sSPI := freq.ScaleSPI(after, betaAfter, freq.SPIFactorAt(m.Core, s))
				sW := 0.0
				if read&core.ReadWatts != 0 {
					sW = freq.ScaleWatts(wAfter, static, freq.DynScaleAt(m.Core, s))
				}
				switch {
				case policy == LeastEnergy:
					take(c, ix+1, float64(sW*sSPI*sSPI)-edpBefore)
				case capW > 0 && usedEx+sW > capW:
				default:
					take(c, ix+1, sSPI-spiBefore)
				}
			}
		default:
			take(c, 0, after-baseSPI)
		}
	}
	return best, nil
}
