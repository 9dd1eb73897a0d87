package core

import (
	"context"
	"encoding/binary"
	"fmt"

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

// Validate checks the assignment fits the machine.
func (cm *CombinedModel) validate(asg Assignment) error {
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
	if err := cm.validate(asg); err != nil {
		return 0, err
	}
	total := 0.0
	for _, group := range cm.Machine.Groups {
		watts, err := cm.estimateGroup(ctx, asg, group, nil)
		if err != nil {
			return 0, err
		}
		total += watts
	}
	return total, nil
}

// estimateGroup averages the modeled power of one cache group over all
// process combinations (Eq. 10). Idle cores contribute P_idle. tab, nil
// outside an assignment search, answers repeated combinations without a
// solve (see searchTable).
func (cm *CombinedModel) estimateGroup(ctx context.Context, asg Assignment, group []int, tab *searchTable) (float64, error) {
	busy := make([]int, 0, 8) // on the stack for groups of up to 8 cores
	for _, c := range group {
		if len(asg[c]) > 0 {
			busy = append(busy, c)
		}
	}
	watts := float64(len(group)-len(busy)) * cm.Power.PIdle()
	if len(busy) == 0 {
		return watts, nil
	}
	// The busy-power average is a pure function of the power model, the
	// solver, the associativity, and the per-core candidate lists, so the
	// solver state can memoize it. Only the average is cached; the idle
	// term is recomputed outside it, and watts + avg runs the same float
	// operations on the same values either way — bit-identical results.
	var wkey string
	if cm.State != nil {
		wkey = cm.State.wattsKey(cm.Power, cm.Solver, cm.Machine.Assoc, asg, busy)
		if avg, ok := cm.State.wattsSeed(wkey); ok {
			return watts + avg, nil
		}
	}
	// Enumerate the cross product of per-core process choices: combination
	// n picks digit i of n, in the mixed radix of the per-core list
	// lengths, from busy core i; the last busy core varies fastest.
	count := 1
	for _, c := range busy {
		count *= len(asg[c])
	}
	combo := make([]*FeatureVector, len(busy))
	scratch := make([]float64, 0, 8) // on the stack too
	var sum float64
	for n := 0; n < count; n++ {
		v := n
		for i := len(busy) - 1; i >= 0; i-- {
			procs := asg[busy[i]]
			combo[i] = procs[v%len(procs)]
			v /= len(procs)
		}
		powers, err := cm.comboPowers(ctx, combo, tab, scratch)
		if err != nil {
			return 0, err
		}
		for _, w := range powers {
			sum += w
		}
	}
	avg := sum / float64(count)
	if cm.State != nil {
		cm.State.wattsRecord(wkey, avg)
	}
	return watts + avg, nil
}

// comboPowers returns ProcessCorePower of every process of one co-run
// combination, in prediction order: appended to buf outside a search,
// solved once and shared afterwards inside one.
func (cm *CombinedModel) comboPowers(ctx context.Context, combo []*FeatureVector, tab *searchTable, buf []float64) ([]float64, error) {
	if tab == nil {
		return cm.solvePowers(ctx, combo, buf)
	}
	tab.key = tab.key[:0]
	for _, f := range combo {
		tab.key = binary.AppendUvarint(tab.key, tab.ids[f])
	}
	powers, ok := tab.powers[string(tab.key)]
	if !ok {
		var err error
		if powers, err = cm.solvePowers(ctx, combo, make([]float64, 0, len(combo))); err != nil {
			return nil, err
		}
		tab.powers[string(tab.key)] = powers
	}
	return powers, nil
}

// solvePowers predicts one co-run combination and appends the modeled core
// power of each of its processes to buf. It is apart from comboPowers so
// that buf never flows into the table and can live on the caller's stack.
func (cm *CombinedModel) solvePowers(ctx context.Context, combo []*FeatureVector, buf []float64) ([]float64, error) {
	preds, err := PredictGroupCached(ctx, combo, cm.Machine.Assoc, cm.Solver, cm.State)
	if err != nil {
		return nil, err
	}
	for _, p := range preds {
		buf = append(buf, cm.ProcessCorePower(p))
	}
	return buf, nil
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
// unchanged per-core slices and rebuilds only core c with a full-slice
// append, which lets callers evaluate a placement before committing
// state (estimation only reads the lists).
func (cm *CombinedModel) EstimateAdditionContext(ctx context.Context, asg Assignment, k *FeatureVector, c int) (float64, error) {
	if c < 0 || c >= cm.Machine.NumCores {
		return 0, fmt.Errorf("core: core %d out of range", c)
	}
	next := make(Assignment, len(asg))
	copy(next, asg)
	cur := asg[c]
	next[c] = append(cur[:len(cur):len(cur)], k)
	return cm.EstimateAssignmentContext(ctx, next)
}
