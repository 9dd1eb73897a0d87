package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// AssignmentResult pairs a candidate assignment with its estimated power.
type AssignmentResult struct {
	Assignment Assignment
	Watts      float64
}

// ErrSearchSpace reports an assignment search over more than 2^20
// process-to-core mappings: the caller asked for too many processes.
var ErrSearchSpace = errors.New("core: search space too large")

// SearchSpace returns cores^procs, the number of process-to-core mappings
// BestAssignment enumerates, or ErrSearchSpace when there are more than
// 2^20 of them. Callers use it to refuse a request before profiling for it.
func SearchSpace(cores, procs int) (int, error) {
	total := 1
	for i := 0; i < procs; i++ {
		// Tested inside the loop: the product must not get to wrap.
		if total *= cores; total > 1<<20 {
			return 0, fmt.Errorf("%w: %d processes on %d cores", ErrSearchSpace, procs, cores)
		}
	}
	return total, nil
}

// searchTable is the level-1 scratch of one assignment search: the
// per-process core powers of every ordered co-run combination of distinct
// feature vectors the search has solved. It lives and dies inside
// BestAssignmentContext, so nothing ever needs invalidating.
type searchTable struct {
	ids    map[*FeatureVector]uint64 // distinct vectors, numbered
	powers map[string][]float64      // uvarint ids of a combination → powers
	key    []byte                    // key-building scratch
}

// BestAssignment exhaustively searches process-to-core mappings of the
// given processes and returns them sorted by estimated average processor
// power — the power-aware assignment application of Section 5. The search
// space is coreCount^k, but the estimation cost is not: every distinct
// co-run combination is solved once and every distinct layout of a cache
// group averaged (Eq. 10) once, after which a candidate costs one lookup
// and one add per cache group — the paper's headline complexity win, the
// profiling data and not the assignment count being what estimation costs.
//
// maxResults bounds the returned slice (0 = all). It is
// BestAssignmentContext without a caller deadline.
func (cm *CombinedModel) BestAssignment(procs []*FeatureVector, maxResults int) ([]AssignmentResult, error) {
	return cm.BestAssignmentContext(context.Background(), procs, maxResults)
}

// BestAssignmentContext is BestAssignment under a caller-supplied context,
// checked once per candidate assignment: an abandoned request stops the
// exhaustive search within one estimation step. More than 2^20 mappings is
// ErrSearchSpace.
func (cm *CombinedModel) BestAssignmentContext(ctx context.Context, procs []*FeatureVector, maxResults int) ([]AssignmentResult, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("core: no processes to assign")
	}
	n := cm.Machine.NumCores
	total, err := SearchSpace(n, len(procs))
	if err != nil {
		return nil, err
	}
	// scratch holds one cache group's per-core lists while it is estimated;
	// stacking everything on core 0 first validates every process once.
	scratch := make(Assignment, n)
	scratch[0] = procs
	if err := cm.Validate(scratch); err != nil {
		return nil, err
	}
	scratch[0] = nil
	tab := &searchTable{ids: make(map[*FeatureVector]uint64), powers: make(map[string][]float64)}
	for _, f := range procs {
		if _, ok := tab.ids[f]; !ok {
			tab.ids[f] = uint64(len(tab.ids))
		}
	}
	// Level 2: the Eq. 10 estimate of a cache group, keyed by which
	// processes sit on each of its cores. Groups share one associativity,
	// so equal layouts of different groups share an entry.
	layouts := make(map[string]float64)
	var key []byte
	type candidate struct {
		watts float64
		idx   int
	}
	var cands []candidate
	choice := make([]int, len(procs))
	canon := make([]int, n) // canonicalChoice's scratch
	for idx := 0; idx < total; idx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		decodeChoice(choice, idx, n)
		if !canonicalChoice(choice, cm.Machine.Groups, canon) {
			continue
		}
		watts := 0.0
		for _, group := range cm.Machine.Groups {
			key = key[:0]
			for _, c := range group {
				scratch[c] = scratch[c][:0]
				for i, pc := range choice {
					if pc == c {
						key = binary.AppendUvarint(key, uint64(i)+1)
						scratch[c] = append(scratch[c], procs[i])
					}
				}
				key = append(key, 0)
			}
			w, ok := layouts[string(key)]
			if !ok {
				est, err := cm.estimateGroup(ctx, scratch, group, tab, ReadWatts)
				if err != nil {
					return nil, err
				}
				w = est.Watts
				layouts[string(key)] = w
			}
			watts += w
		}
		cands = append(cands, candidate{watts, idx})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].watts < cands[j].watts })
	if maxResults > 0 && len(cands) > maxResults {
		cands = cands[:maxResults]
	}
	// Only the assignments returned are ever built.
	results := make([]AssignmentResult, len(cands))
	for r, cand := range cands {
		decodeChoice(choice, cand.idx, n)
		asg := make(Assignment, n)
		for i, c := range choice {
			asg[c] = append(asg[c], procs[i])
		}
		results[r] = AssignmentResult{Assignment: asg, Watts: cand.watts}
	}
	return results, nil
}

// decodeChoice writes candidate idx's core of every process into choice:
// the base-n digits of idx, process 0 least significant.
func decodeChoice(choice []int, idx, n int) {
	for i := range choice {
		choice[i] = idx % n
		idx /= n
	}
}

// canonicalChoice suppresses assignments equivalent under permuting cores
// within a cache group (the model is symmetric in them): it keeps only the
// representative where, within each group, cores are "used" in order and
// the first process index on each used core increases. scratch must be at
// least as long as the largest group.
func canonicalChoice(choice []int, groups [][]int, scratch []int) bool {
	for _, g := range groups {
		// first[i] = index of the first process assigned to g[i], or -1.
		first := scratch[:len(g)]
		for i := range first {
			first[i] = -1
		}
		for pi, c := range choice {
			for i, gc := range g {
				if gc == c && first[i] < 0 {
					first[i] = pi
				}
			}
		}
		// Cores inside a group must be used in increasing first-process
		// order, with unused cores trailing.
		prev := -1
		seenEmpty := false
		for _, f := range first {
			if f < 0 {
				seenEmpty = true
				continue
			}
			if seenEmpty || f < prev {
				return false
			}
			prev = f
		}
	}
	return true
}

// SpreadBaseline assigns processes round-robin across cores (the naive
// load balancer), for comparison against the power-aware choice.
func SpreadBaseline(machineCores int, procs []*FeatureVector) Assignment {
	asg := make(Assignment, machineCores)
	for i, f := range procs {
		c := i % machineCores
		asg[c] = append(asg[c], f)
	}
	return asg
}

// EnergyEstimate converts an assignment's power estimate and the procs'
// predicted throughputs into an energy-per-work figure: watts divided by
// aggregate predicted instructions per second. Lower is better when
// choosing assignments for energy rather than power.
func (cm *CombinedModel) EnergyEstimate(asg Assignment) (joulesPerGigaInstr float64, err error) {
	watts, err := cm.EstimateAssignment(asg)
	if err != nil {
		return 0, err
	}
	ips := 0.0
	for _, group := range cm.Machine.Groups {
		var members []*FeatureVector
		var share []float64 // time share of each member on its core
		for _, c := range group {
			k := len(asg[c])
			for _, f := range asg[c] {
				members = append(members, f)
				share = append(share, 1/float64(k))
			}
		}
		if len(members) == 0 {
			continue
		}
		preds, err := PredictGroup(members, cm.Machine.Assoc, cm.Solver)
		if err != nil {
			return 0, err
		}
		for i, p := range preds {
			ips += share[i] / p.SPI
		}
	}
	if ips == 0 {
		return math.Inf(1), nil
	}
	return watts / ips * 1e9, nil
}
