package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"mpmc/internal/cache"
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
// BestAssignmentContext enumerates, or ErrSearchSpace when there are more
// than 2^20 of them. Callers use it to refuse a request before profiling
// for it.
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
// feature vectors the search has solved. It is reset at the start of every
// search that uses it, so nothing ever needs invalidating.
type searchTable struct {
	// ids runs parallel to the search's scratch assignment: per core, the
	// number (from 1) of each listed process's distinct feature vector.
	ids [][]uint64
	// width is the bit width of one id. A combination's key is its ids
	// packed in prediction order; no id is 0, so tuples of different lengths
	// cannot collide.
	width int
	// powers maps a combination's key to the offset of its powers in arena,
	// one per process of the combination.
	powers map[uint64]int
	arena  []float64
}

// layoutTable numbers the layouts of a cache group while a search plan is
// built. A layout is which processes sit on each of the group's cores, one
// k-bit process mask per core: packed into one integer when cores × k bits
// fit in it, spelt out as bytes when they do not. Groups share one
// associativity, so groups of equal size share a table.
type layoutTable struct {
	cores  int
	packed map[uint64]int32 // nil when a layout does not fit 64 bits
	wide   map[string]int32
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
			t.packed = make(map[uint64]int32)
		} else {
			t.wide = make(map[string]int32)
		}
		tables[gi] = t
	}
	return tables
}

// get returns the slot recorded for a layout, given in both forms.
func (t *layoutTable) get(packed uint64, wide []byte) (int32, bool) {
	if t.packed != nil {
		slot, ok := t.packed[packed]
		return slot, ok
	}
	slot, ok := t.wide[string(wide)]
	return slot, ok
}

// put records the slot of a layout.
func (t *layoutTable) put(packed uint64, wide []byte, slot int32) {
	if t.packed != nil {
		t.packed[packed] = slot
	} else {
		t.wide[string(wide)] = slot
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
// that order, so it marks a bitset and the scan of the set restores it:
// candidates then meet the ranking in ascending index, so among exact-watts
// ties the first one seen is the one the ranking puts first.
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

// searchPlan is everything an assignment search needs that depends only on
// the machine's cache-group shape and the process count k, never on the
// processes: level 0's canonical mappings and level 2's layout numbering.
// It is structure, not a prediction, so it is immutable once built and a
// plan for one shape serves every search of that shape.
type searchPlan struct {
	// mappings are the canonical mapping indices, ascending.
	mappings []int
	// slots[m·groups + gi] is the layout slot of group gi under mapping m.
	// Two (mapping, group) pairs share a slot exactly when their groups are
	// of one size and lay the processes out alike, and slots are numbered
	// in the order the search first meets them.
	slots  []int32
	nslots int
	// groupOf places a core in its group.
	groupOf []int
}

// newSearchPlan walks the canonical mappings of k processes on the groups
// and numbers every group's layouts by their packed or wide key.
func newSearchPlan(groups [][]int, n, k, total int) *searchPlan {
	ng := len(groups)
	p := &searchPlan{mappings: canonicalMappings(groups, n, k, total), groupOf: make([]int, n)}
	p.slots = make([]int32, len(p.mappings)*ng)
	posOf := make([]int, n)
	for gi, g := range groups {
		for j, c := range g {
			p.groupOf[c], posOf[c] = gi, j
		}
	}
	tables := newLayoutTables(groups, k)
	choice, layout := make([]int, k), make([]uint64, ng)
	var wide []byte
	for m, idx := range p.mappings {
		decodeChoice(choice, idx, n)
		packLayouts(layout, choice, p.groupOf, posOf)
		for gi, t := range tables {
			if t.packed == nil {
				wide = wideLayoutKey(wide[:0], choice, p.groupOf, posOf, gi)
			}
			slot, ok := t.get(layout[gi], wide)
			if !ok {
				slot = int32(p.nslots)
				p.nslots++
				t.put(layout[gi], wide, slot)
			}
			p.slots[m*ng+gi] = slot
		}
	}
	return p
}

// maxPlanMappings bounds the plans the plan table keeps: a search over more
// canonical mappings builds its plan for that call alone.
const maxPlanMappings = 1 << 16

// plans holds one searchPlan per (group shape, k), keyed by planKey. It
// grows with the distinct shapes searched, never with the searches.
var plans = struct {
	mu sync.RWMutex
	m  map[string]*searchPlan
}{m: make(map[string]*searchPlan)}

// planKey appends the key of a search plan: k, the core count and the
// content of every group's core list, each a uvarint, so that no two shapes
// share one.
func planKey(key []byte, groups [][]int, n, k int) []byte {
	key = binary.AppendUvarint(key, uint64(k))
	key = binary.AppendUvarint(key, uint64(n))
	key = binary.AppendUvarint(key, uint64(len(groups)))
	for _, g := range groups {
		key = binary.AppendUvarint(key, uint64(len(g)))
		for _, c := range g {
			key = binary.AppendUvarint(key, uint64(c))
		}
	}
	return key
}

// planFor returns the search plan of k processes on the groups of an
// n-core machine with total mappings: the table's when it has one, else a
// new one, which the table keeps unless it is over maxPlanMappings.
func planFor(groups [][]int, n, k, total int) *searchPlan {
	var buf [64]byte
	key := planKey(buf[:0], groups, n, k)
	plans.mu.RLock()
	p := plans.m[string(key)]
	plans.mu.RUnlock()
	if p != nil {
		return p
	}
	p = newSearchPlan(groups, n, k, total)
	if len(p.mappings) > maxPlanMappings {
		return p
	}
	plans.mu.Lock()
	defer plans.mu.Unlock()
	if q := plans.m[string(key)]; q != nil {
		return q
	}
	plans.m[string(key)] = p
	return p
}

// candidate is one ranked mapping: its estimated watts and its index.
type candidate struct {
	watts float64
	idx   int
}

// compareCandidates is the ranking's total order: by watts, then by
// canonical mapping index, so exact-watts ties — every mirror image on a
// machine of equal groups — rank lowest index first.
func compareCandidates(a, b candidate) int {
	if a.watts != b.watts {
		if a.watts < b.watts {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// offerCandidate keeps the best n candidates seen so far in h, a max-heap
// under compareCandidates (the worst kept at its root), and returns h.
func offerCandidate(h []candidate, n int, c candidate) []candidate {
	i := len(h)
	if i < n {
		h = append(h, c)
		for i > 0 {
			parent := (i - 1) / 2
			if compareCandidates(h[parent], h[i]) >= 0 {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		return h
	}
	if compareCandidates(c, h[0]) >= 0 {
		return h
	}
	h[0] = c
	for i = 0; ; {
		worst := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < n && compareCandidates(h[child], h[worst]) > 0 {
				worst = child
			}
		}
		if worst == i {
			return h
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// searchScratch is the reusable memory of one assignment search. Everything
// in it is dead once the search returns.
type searchScratch struct {
	// asg holds one cache group's per-core lists while it is estimated.
	asg    Assignment
	procID []uint64 // per process, its distinct feature vector's number
	choice []int
	tab    searchTable
	// lw holds the Eq. 10 watts of every layout slot seen so far.
	lw    []float64
	seen  []bool
	cands []candidate
}

var searchScratches = cache.FreeList[searchScratch]{New: func() *searchScratch {
	return &searchScratch{tab: searchTable{powers: make(map[uint64]int)}}
}}

// getSearchScratch returns scratch reset for a search of procs under plan
// on an n-core machine.
func getSearchScratch(plan *searchPlan, procs []*FeatureVector, n int) *searchScratch {
	s := searchScratches.Get()
	k := len(procs)
	s.asg = slices.Grow(s.asg[:0], n)[:n]
	s.tab.ids = slices.Grow(s.tab.ids[:0], n)[:n]
	s.choice = slices.Grow(s.choice[:0], k)[:k]
	// Distinct feature vectors are numbered from 1 in order of appearance.
	s.procID = slices.Grow(s.procID[:0], k)[:k]
	distinct := uint64(0)
	for i, f := range procs {
		id := uint64(0)
		for j, g := range procs[:i] {
			if g == f {
				id = s.procID[j]
				break
			}
		}
		if id == 0 {
			distinct++
			id = distinct
		}
		s.procID[i] = id
	}
	s.tab.width = bits.Len64(distinct)
	clear(s.tab.powers)
	s.tab.arena = s.tab.arena[:0]
	s.lw = slices.Grow(s.lw[:0], plan.nslots)[:plan.nslots]
	s.seen = slices.Grow(s.seen[:0], plan.nslots)[:plan.nslots]
	clear(s.seen)
	s.cands = slices.Grow(s.cands[:0], len(plan.mappings))
	return s
}

// putSearchScratch releases s without the feature vectors it picked up, so
// a free scratch keeps no process alive, and without the per-candidate
// memory of a search over more than maxPlanMappings mappings.
func putSearchScratch(s *searchScratch) {
	lists := s.asg[:cap(s.asg)]
	for c, list := range lists {
		clear(list[:cap(list)])
		lists[c] = list[:0]
	}
	if cap(s.cands) > maxPlanMappings {
		s.lw, s.seen, s.cands = nil, nil, nil
	}
	searchScratches.Put(s)
}

// SearchCandidates returns how many assignments of k processes
// BestAssignmentContext ranks on cm's machine: the length of its ranking
// when maxResults is 0. More than 2^20 mappings is ErrSearchSpace.
func (cm *CombinedModel) SearchCandidates(k int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("core: no processes to assign")
	}
	n := cm.Machine.NumCores
	total, err := SearchSpace(n, k)
	if err != nil {
		return 0, err
	}
	return len(planFor(cm.Machine.Groups, n, k, total).mappings), nil
}

// BestAssignmentContext exhaustively searches process-to-core mappings of
// the given processes and returns them ranked by estimated average
// processor power — the power-aware assignment application of Section 5.
// The search space is coreCount^k, but the estimation cost is not: only the
// mappings that differ under the model are enumerated, every distinct
// co-run combination is solved once and every distinct layout of a cache
// group averaged (Eq. 10) once, after which a candidate costs one slot load
// and one add per cache group — the paper's headline complexity win, the
// profiling data and not the assignment count being what estimation costs.
//
// The ranking is the total order of compareCandidates: by watts, exact
// ties by canonical mapping index (process 0's core the least significant
// base-cores digit), lowest first. maxResults bounds the returned slice
// (0 = all), which is always the prefix of that order: a top-n search keeps
// a bounded heap of n (for n = 1, a running minimum) and sorts only those,
// and only a search for every candidate sorts them all.
//
// ctx is checked once per candidate assignment: an abandoned request stops
// the search within one estimation step. More than 2^20 mappings is
// ErrSearchSpace.
func (cm *CombinedModel) BestAssignmentContext(ctx context.Context, procs []*FeatureVector, maxResults int) ([]AssignmentResult, error) {
	return cm.bestAssignment(ctx, procs, maxResults, nil)
}

// bestAssignment is BestAssignmentContext. layouts, if not nil, counts the
// group layouts the search starts to estimate.
func (cm *CombinedModel) bestAssignment(ctx context.Context, procs []*FeatureVector, maxResults int, layouts *int) ([]AssignmentResult, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("core: no processes to assign")
	}
	n, k, groups := cm.Machine.NumCores, len(procs), cm.Machine.Groups
	total, err := SearchSpace(n, k)
	if err != nil {
		return nil, err
	}
	// Level 0 and the level-2 numbering: the canonical mappings, in
	// ascending index order, and each (mapping, group)'s layout slot.
	plan := planFor(groups, n, k, total)
	s := getSearchScratch(plan, procs, n)
	defer putSearchScratch(s)
	// Stacking everything on core 0 first validates every process once.
	core0 := s.asg[0]
	s.asg[0] = procs
	err = cm.Validate(s.asg)
	s.asg[0] = core0
	if err != nil {
		return nil, err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	env := solveEnv{search: &s.tab, ws: ws}
	ng := len(groups)
	keep := len(plan.mappings)
	if maxResults > 0 {
		keep = min(keep, maxResults)
	}
	cands := s.cands[:0]
	for m, idx := range plan.mappings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		watts := 0.0
		for gi, slot := range plan.slots[m*ng : m*ng+ng] {
			if !s.seen[slot] {
				// A layout's first sight: only now are its per-core lists
				// spelt out.
				group := groups[gi]
				for _, c := range group {
					s.asg[c], s.tab.ids[c] = s.asg[c][:0], s.tab.ids[c][:0]
				}
				decodeChoice(s.choice, idx, n)
				for i, c := range s.choice {
					if plan.groupOf[c] == gi {
						s.asg[c], s.tab.ids[c] = append(s.asg[c], procs[i]), append(s.tab.ids[c], s.procID[i])
					}
				}
				if layouts != nil {
					*layouts++
				}
				est, err := cm.estimateGroup(ctx, s.asg, group, env, ReadWatts, nil)
				if err != nil {
					return nil, err
				}
				s.lw[slot], s.seen[slot] = est.Watts, true
			}
			watts += s.lw[slot]
		}
		// Candidates arrive in ascending index, so a tie with a kept
		// candidate never displaces it.
		c := candidate{watts, idx}
		if keep == len(plan.mappings) {
			cands = append(cands, c)
		} else {
			cands = offerCandidate(cands, keep, c)
		}
	}
	slices.SortFunc(cands, compareCandidates)
	// Only the assignments returned are ever built, in three allocations:
	// every result's per-core lists are capacity-bounded windows of one
	// array, so appending to one cannot write into another.
	results := make([]AssignmentResult, len(cands))
	lists := make([][]*FeatureVector, len(cands)*n)
	members := make([]*FeatureVector, len(cands)*k)
	next := 0
	for r, cand := range cands {
		decodeChoice(s.choice, cand.idx, n)
		asg := Assignment(lists[r*n : (r+1)*n : (r+1)*n])
		for c := range asg {
			start := next
			for i, pc := range s.choice {
				if pc == c {
					members[next] = procs[i]
					next++
				}
			}
			if next > start {
				asg[c] = members[start:next:next]
			}
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
