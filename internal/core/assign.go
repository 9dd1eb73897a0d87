package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	// ids runs parallel to the search's scratch assignment: per core, the
	// number (from 1) of each listed process's distinct feature vector.
	ids [][]uint64
	// width is the bit width of one id. A combination's key is its ids
	// packed in prediction order; no id is 0, so tuples of different lengths
	// cannot collide.
	width  int
	powers map[uint64][]float64
}

// layoutTable is the level-2 scratch of one assignment search: the Eq. 10
// watts of every layout of a cache group seen so far. A layout is which
// processes sit on each of the group's cores, one k-bit process mask per
// core: packed into one integer when cores × k bits fit in it, spelt out
// as bytes when they do not. Groups share one associativity, so groups of
// equal size share a table.
type layoutTable struct {
	cores  int
	packed map[uint64]float64 // nil when a layout does not fit 64 bits
	wide   map[string]float64
}

// newLayoutTables returns each group's table for a search of k processes.
func newLayoutTables(groups [][]int, k int) []*layoutTable {
	tables := make([]*layoutTable, len(groups))
	for gi, g := range groups {
		for _, t := range tables[:gi] {
			if t.cores == len(g) {
				tables[gi] = t
			}
		}
		if tables[gi] != nil {
			continue
		}
		t := &layoutTable{cores: len(g)}
		if len(g)*k <= 64 {
			t.packed = make(map[uint64]float64)
		} else {
			t.wide = make(map[string]float64)
		}
		tables[gi] = t
	}
	return tables
}

// get returns the watts recorded for a layout, given in both forms.
func (t *layoutTable) get(packed uint64, wide []byte) (float64, bool) {
	if t.packed != nil {
		w, ok := t.packed[packed]
		return w, ok
	}
	w, ok := t.wide[string(wide)]
	return w, ok
}

// put records the watts of a layout.
func (t *layoutTable) put(packed uint64, wide []byte, w float64) {
	if t.packed != nil {
		t.packed[packed] = w
	} else {
		t.wide[string(wide)] = w
	}
}

// canonicalWalk is level 0 of an assignment search: it visits exactly one
// mapping of every class equivalent under permuting cores within a cache
// group (the model is symmetric in them) — the one whose groups each use
// their cores in listed order, a core opened by a later process than the
// one before it. Process i therefore joins a core its group already uses
// or opens the group's next one, and no other mapping is ever looked at.
type canonicalWalk struct {
	groups [][]int
	used   []int    // cores of each group holding a process so far
	place  []int    // cores^i: process i's place value in a mapping index
	marks  []uint64 // bit idx set = mapping idx is canonical
	count  int
}

// visit assigns processes i.. on top of the partial mapping idx.
func (w *canonicalWalk) visit(i, idx int) {
	if i == len(w.place) {
		w.marks[idx>>6] |= 1 << (idx & 63)
		w.count++
		return
	}
	for gi, g := range w.groups {
		u := w.used[gi]
		for _, c := range g[:u] {
			w.visit(i+1, idx+c*w.place[i])
		}
		if u < len(g) {
			w.used[gi]++
			w.visit(i+1, idx+g[u]*w.place[i])
			w.used[gi]--
		}
	}
}

// canonicalMappings returns the canonical mappings of k processes onto
// cores, as indices into the cores^k = total mappings (process 0 the least
// significant base-cores digit), ascending. The walk does not reach them in
// that order, so it marks a bitset and the scan of the set restores it: the
// order candidates meet the ranking sort in is the order its ties fall in.
func canonicalMappings(groups [][]int, cores, k, total int) []int {
	w := &canonicalWalk{
		groups: groups,
		used:   make([]int, len(groups)),
		place:  make([]int, k),
		marks:  make([]uint64, (total+63)/64),
	}
	for i, p := 0, 1; i < k; i, p = i+1, p*cores {
		w.place[i] = p
	}
	w.visit(0, 0)
	mappings := make([]int, 0, w.count)
	for word, set := range w.marks {
		for ; set != 0; set &= set - 1 {
			mappings = append(mappings, word<<6|bits.TrailingZeros64(set))
		}
	}
	return mappings
}

// packLayouts writes every group's layout under choice in packed form: the
// k-bit process mask of the group's j-th core at bit j·k. A group too large
// to pack reads garbage and goes by its wideLayoutKey.
func packLayouts(layout []uint64, choice, groupOf, posOf []int) {
	clear(layout)
	for i, c := range choice {
		layout[groupOf[c]] |= 1 << (posOf[c]*len(choice) + i)
	}
}

// wideLayoutKey appends the layout of group gi under choice in its unpacked
// form: per process, its core's position in the group from 1, or 0 when it
// sits in another group.
func wideLayoutKey(key []byte, choice, groupOf, posOf []int, gi int) []byte {
	for _, c := range choice {
		p := 0
		if groupOf[c] == gi {
			p = posOf[c] + 1
		}
		key = append(key, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	return key
}

// BestAssignment exhaustively searches process-to-core mappings of the
// given processes and returns them sorted by estimated average processor
// power — the power-aware assignment application of Section 5. The search
// space is coreCount^k, but the estimation cost is not: only the mappings
// that differ under the model are enumerated, every distinct co-run
// combination is solved once and every distinct layout of a cache group
// averaged (Eq. 10) once, after which a candidate costs one integer lookup
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
	n, k, groups := cm.Machine.NumCores, len(procs), cm.Machine.Groups
	total, err := SearchSpace(n, k)
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
	// Level 1: distinct feature vectors are numbered from 1; a combination
	// is its processes' numbers, packed.
	vectors := make(map[*FeatureVector]uint64, k)
	procID := make([]uint64, k)
	for i, f := range procs {
		id, ok := vectors[f]
		if !ok {
			id = uint64(len(vectors)) + 1
			vectors[f] = id
		}
		procID[i] = id
	}
	tab := &searchTable{ids: make([][]uint64, n), width: bits.Len(uint(len(vectors))), powers: make(map[uint64][]float64)}
	// Level 2: one layout table per group size; groupOf and posOf place a
	// core in its group.
	tables := newLayoutTables(groups, k)
	groupOf, posOf := make([]int, n), make([]int, n)
	for gi, g := range groups {
		for j, c := range g {
			groupOf[c], posOf[c] = gi, j
		}
	}
	// Level 0: the canonical mappings, in ascending index order.
	mappings := canonicalMappings(groups, n, k, total)
	type candidate struct {
		watts float64
		idx   int
	}
	cands := make([]candidate, 0, len(mappings))
	ws := getWorkspace()
	defer putWorkspace(ws)
	env := solveEnv{search: tab, ws: ws}
	choice := make([]int, k)
	layout := make([]uint64, len(groups)) // each group's packed layout
	var wide []byte
	for _, idx := range mappings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		decodeChoice(choice, idx, n)
		packLayouts(layout, choice, groupOf, posOf)
		watts := 0.0
		for gi, group := range groups {
			t := tables[gi]
			if t.packed == nil {
				wide = wideLayoutKey(wide[:0], choice, groupOf, posOf, gi)
			}
			w, ok := t.get(layout[gi], wide)
			if !ok {
				// A layout's first sight: only now are its per-core lists
				// spelt out.
				for _, c := range group {
					scratch[c], tab.ids[c] = scratch[c][:0], tab.ids[c][:0]
				}
				for i, c := range choice {
					if groupOf[c] == gi {
						scratch[c], tab.ids[c] = append(scratch[c], procs[i]), append(tab.ids[c], procID[i])
					}
				}
				est, err := cm.estimateGroup(ctx, scratch, group, env, ReadWatts, nil)
				if err != nil {
					return nil, err
				}
				w = est.Watts
				t.put(layout[gi], wide, w)
			}
			watts += w
		}
		cands = append(cands, candidate{watts, idx})
	}
	// The ranking is this sort of this sequence: on a machine of equal
	// groups every assignment has a mirror image of exactly its watts, so
	// the order of ties — the winner's included — is the sort's doing.
	slices.SortFunc(cands, func(a, b candidate) int {
		switch {
		case a.watts < b.watts:
			return -1
		case b.watts < a.watts:
			return 1
		}
		return 0
	})
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
