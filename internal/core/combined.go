package core

import (
	"context"
	"fmt"
	"slices"

	"mpmc/internal/hpc"
	"mpmc/internal/machine"
)

// CombinedModel integrates the performance model and the power model
// (Section 5): it estimates the processor power of any tentative
// process-to-core assignment *before the processes run*, using only each
// process's profiling feature vector.
//
// The decomposition behind it: process power splits into
//
//	P1 = P_idle + (c1·L1RPI + c2·L2RPI + c4·BRPI + c5·FPPI)/SPI
//	P2 = c3·L2RPI·L2MPR/SPI
//
// where the instruction-related rates are contention-invariant process
// properties, and SPI and L2MPR come from the performance model's
// equilibrium solution for the co-running group.
type CombinedModel struct {
	Machine *machine.Machine
	Power   *PowerModel
	// Solver selects the equilibrium algorithm (SolverAuto by default).
	Solver SolverMethod
	// State optionally memoizes converged equilibrium solutions across
	// estimates (see SolverState). Results are bit-identical with or
	// without it; nil disables reuse.
	State *SolverState
}

// NewCombinedModel wires a trained power model to a machine description.
func NewCombinedModel(m *machine.Machine, pm *PowerModel) *CombinedModel {
	return &CombinedModel{Machine: m, Power: pm, Solver: SolverAuto}
}

// PredictedRates converts a performance prediction into the five Eq. 9
// event rates: each instruction-related event count divided by the
// predicted time per instruction.
func PredictedRates(p Prediction) hpc.Rates {
	f := p.Feature
	return hpc.Rates{
		L1RPS: f.L1RPI / p.SPI,
		L2RPS: f.API / p.SPI,
		L2MPS: f.API * p.MPA / p.SPI,
		BRPS:  f.BRPI / p.SPI,
		FPPS:  f.FPPI / p.SPI,
	}
}

// P1 returns the contention-invariant-part power of a predicted process
// (everything but the miss term), and P2 the miss term; their sum is the
// modeled core power while the process runs.
func (cm *CombinedModel) P1(p Prediction) float64 {
	c := cm.Power.Coefficients()
	f := p.Feature
	return cm.Power.PIdle() + (c[0]*f.L1RPI+c[1]*f.API+c[3]*f.BRPI+c[4]*f.FPPI)/p.SPI
}

// P2 returns the L2-miss power term of a predicted process (negative on
// every machine studied: stalled cores draw less).
func (cm *CombinedModel) P2(p Prediction) float64 {
	c := cm.Power.Coefficients()
	return c[2] * p.Feature.API * p.MPA / p.SPI
}

// ProcessCorePower returns the modeled power of a core while the
// predicted process runs on it: P1 + P2 = Eq. 9 at the predicted rates.
func (cm *CombinedModel) ProcessCorePower(p Prediction) float64 {
	return cm.Power.CorePower(PredictedRates(p))
}

// Assignment maps each core to the feature vectors of the processes
// time-sharing it (nil/empty = idle core). Index = core ID.
type Assignment [][]*FeatureVector

// Validate checks the assignment fits the machine: one list per core, no
// nil and no malformed feature vector.
func (cm *CombinedModel) Validate(asg Assignment) error {
	if len(asg) != cm.Machine.NumCores {
		return fmt.Errorf("core: assignment covers %d cores, machine has %d", len(asg), cm.Machine.NumCores)
	}
	for c, procs := range asg {
		for _, f := range procs {
			if f == nil {
				return fmt.Errorf("core: nil feature on core %d", c)
			}
			if err := f.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// EstimateAssignment returns the estimated average processor power of the
// assignment: Eq. 10's combination averaging within every cache group plus
// P_idle for idle cores — the quantity Table 4 validates. Only profiling
// data is consumed. It is EstimateAssignmentContext without a deadline.
func (cm *CombinedModel) EstimateAssignment(asg Assignment) (float64, error) {
	return cm.EstimateAssignmentContext(context.Background(), asg)
}

// EstimateAssignmentContext is EstimateAssignment under a caller-supplied
// context: cancellation propagates into every per-combination equilibrium
// solve, so an abandoned request stops between (or inside) solves rather
// than estimating the whole assignment.
func (cm *CombinedModel) EstimateAssignmentContext(ctx context.Context, asg Assignment) (float64, error) {
	return (*ComboTable)(nil).EstimateAssignment(ctx, cm, asg)
}

// estimateGroups sums the Eq. 10 watts of every cache group of a validated
// assignment, in group order.
func (cm *CombinedModel) estimateGroups(ctx context.Context, asg Assignment, env solveEnv) (float64, error) {
	total := 0.0
	for _, group := range cm.Machine.Groups {
		est, err := cm.estimateGroup(ctx, asg, group, env, ReadWatts, nil)
		if err != nil {
			return 0, err
		}
		total += est.Watts
	}
	return total, nil
}

// Readout selects what an Eq. 10 pass reads out of the equilibrium
// solutions of a cache group's co-run combinations.
type Readout uint8

const (
	// ReadWatts asks for the group's estimated power (Eq. 10).
	ReadWatts Readout = 1 << iota
	// ReadSPI asks for every resident's expected seconds per instruction.
	ReadSPI
)

// GroupEstimate is one cache group's Eq. 10 read-out. Eq. 11 takes the SPI
// and the power of a combination from one equilibrium solution, so one
// enumeration of the combinations yields both.
type GroupEstimate struct {
	// Watts is P_idle per idle core plus the busy cores' modeled power
	// averaged over the combinations (0 unless ReadWatts was asked for).
	Watts float64
	// SPI holds one term per resident in (busy core, arrival) order: the
	// resident's predicted SPI averaged over the combinations it appears
	// in — its round-robin share of the time quantum — counted Members
	// times for a thread-group bundle (nil unless ReadSPI was asked for).
	SPI []float64
}

// EstimateGroupContext runs the Eq. 10 pass of cache group gi alone. It is
// the unit of Figure 1's delta: adding a process to a core changes that
// core's group and leaves every other group's estimate (P_rest) as it was,
// and summing the groups' Watts in index order is EstimateAssignmentContext
// bit for bit. The caller has checked asg with Validate.
func (cm *CombinedModel) EstimateGroupContext(ctx context.Context, asg Assignment, gi int, read Readout) (GroupEstimate, error) {
	return (*ComboTable)(nil).EstimateGroup(ctx, cm, asg, gi, read, nil)
}

// estimateGroup is the one enumeration of a cache group's co-run
// combinations (Eq. 10): every combination is solved to equilibrium once
// and read out for power, for SPI, or for both. Idle cores contribute
// P_idle. env.search, nil outside an assignment search (which reads watts
// only), answers repeated combinations without a solve (see searchTable);
// env.table does the same for the contended combinations of one operation.
// The SPI terms are written into spi's backing array.
func (cm *CombinedModel) estimateGroup(ctx context.Context, asg Assignment, group []int, env solveEnv, read Readout, spi []float64) (GroupEstimate, error) {
	ws := env.ws
	busy := ws.busy[:0]
	residents := 0
	for _, c := range group {
		if len(asg[c]) > 0 {
			busy = append(busy, c)
			residents += len(asg[c])
		}
	}
	ws.busy = busy
	var est GroupEstimate
	if read&ReadWatts != 0 {
		est.Watts = float64(len(group)-len(busy)) * cm.Power.PIdle()
	}
	if len(busy) == 0 {
		return est, nil
	}
	// The busy-power average is a pure function of the power model, the
	// solver, the associativity, and the per-core candidate lists, so the
	// solver state can memoize it. Only the average is cached; the idle
	// term is recomputed outside it, and watts + avg runs the same float
	// operations on the same values either way — bit-identical results. A
	// pass that still owes SPI terms enumerates for those alone.
	var wkey string
	if cm.State != nil && read&ReadWatts != 0 {
		wkey = cm.State.wattsKey(cm.Power, cm.Solver, cm.Machine.Assoc, asg, busy)
		if avg, ok := cm.State.wattsSeed(wkey); ok {
			est.Watts += avg
			if read &^= ReadWatts; read == 0 {
				return est, nil
			}
		}
	}
	// Enumerate the cross product of per-core process choices: combination
	// n picks digit i of n, in the mixed radix of the per-core list
	// lengths, from busy core i; the last busy core varies fastest.
	count := 1
	for _, c := range busy {
		count *= len(asg[c])
	}
	combo := slices.Grow(ws.combo[:0], len(busy))[:len(busy)]
	// slot[i] is where the SPI of busy core i's chosen process accumulates:
	// est.SPI is laid out (busy core, arrival) from the start.
	slot := slices.Grow(ws.slot[:0], len(busy))[:len(busy)]
	ws.combo, ws.slot = combo, slot
	if read&ReadSPI != 0 {
		est.SPI = slices.Grow(spi[:0], residents)[:residents]
		clear(est.SPI)
	}
	// A combination too wide for the search table's packed key is solved
	// unshared. (Under SearchSpace's bound none is: a combination has at
	// most min(cores, k) members.)
	tab := env.search
	if tab != nil && len(busy)*tab.width > 64 {
		tab = nil
	}
	var sum float64
	for n := 0; n < count; n++ {
		v, end := n, residents
		var key uint64
		for i := len(busy) - 1; i >= 0; i-- {
			procs := asg[busy[i]]
			end -= len(procs)
			d := v % len(procs)
			combo[i], slot[i] = procs[d], end+d
			if tab != nil {
				key |= tab.ids[busy[i]][d] << (i * tab.width)
			}
			v /= len(procs)
		}
		if tab != nil {
			powers, err := cm.tablePowers(ctx, combo, key, tab, ws)
			if err != nil {
				return GroupEstimate{}, err
			}
			for _, w := range powers {
				sum += w
			}
			continue
		}
		preds, err := predictInto(ctx, ws.preds, combo, cm.Machine.Assoc, cm.Solver, cm.State, env.table, ws)
		if err != nil {
			return GroupEstimate{}, err
		}
		ws.preds = preds
		for i, p := range preds {
			if read&ReadWatts != 0 {
				sum += cm.ProcessCorePower(p)
			}
			if read&ReadSPI != 0 {
				est.SPI[slot[i]] += p.SPI
			}
		}
	}
	if read&ReadWatts != 0 {
		avg := sum / float64(count)
		if cm.State != nil {
			cm.State.wattsRecord(wkey, avg)
		}
		est.Watts += avg
	}
	if read&ReadSPI != 0 {
		i := 0
		for _, c := range busy {
			appearances := float64(count) / float64(len(asg[c]))
			for _, f := range asg[c] {
				est.SPI[i] /= appearances
				// A thread-group bundle resident stands for Members
				// co-located threads: its solved SPI is the per-member SPI
				// of the merged stream, so the group total counts it
				// Members times. Legacy features (Members ≤ 1) skip the
				// multiply so their terms stay bit-identical.
				if f.Members > 1 {
					est.SPI[i] *= float64(f.Members)
				}
				i++
			}
		}
	}
	return est, nil
}

// tablePowers returns ProcessCorePower of every process of one co-run
// combination of an assignment search, in prediction order: solved on first
// sight of its key, shared afterwards.
func (cm *CombinedModel) tablePowers(ctx context.Context, combo []*FeatureVector, key uint64, tab *searchTable, ws *workspace) ([]float64, error) {
	powers, ok := tab.powers[key]
	if !ok {
		preds, err := predictInto(ctx, ws.preds, combo, cm.Machine.Assoc, cm.Solver, cm.State, nil, ws)
		if err != nil {
			return nil, err
		}
		ws.preds = preds
		powers = make([]float64, len(preds))
		for i, p := range preds {
			powers[i] = cm.ProcessCorePower(p)
		}
		tab.powers[key] = powers
	}
	return powers, nil
}

// EstimateAddition implements the Figure 1 algorithm: the estimated
// processor power after assigning process k to core c, given the current
// assignment. The partner-set case analysis of the paper reduces to
// re-estimating c's cache group with k added while every other group's
// estimate is unchanged (its P_rest).
func (cm *CombinedModel) EstimateAddition(asg Assignment, k *FeatureVector, c int) (float64, error) {
	return cm.EstimateAdditionContext(context.Background(), asg, k, c)
}

// EstimateAdditionContext is EstimateAddition under a caller-supplied
// context. It never mutates asg: the tentative assignment shares the
// unchanged per-core slices and spells out only core c, in scratch memory,
// which lets callers evaluate a placement before committing state
// (estimation only reads the lists).
func (cm *CombinedModel) EstimateAdditionContext(ctx context.Context, asg Assignment, k *FeatureVector, c int) (float64, error) {
	return (*ComboTable)(nil).EstimateAddition(ctx, cm, asg, k, c)
}
