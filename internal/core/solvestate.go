// Solver-state handle: warm-started equilibrium solving with bit-exact
// replay.
//
// Fleet placement evaluates the same co-run groups over and over — the
// machine's current groups recur across every candidate slot, every
// policy pass, and every rebalance scan. A SolverState remembers the
// solved effective-size vector of each group it has seen, keyed by the
// exact identity of the inputs, and seeds the next solve of an identical
// group with it. Because the solvers are deterministic pure functions of
// (features, associativity, method), the recorded solution *is* what a
// cold solve would compute, so accepting a verified seed returns the
// same bytes the cold path would — warm-starting here means "converge in
// zero iterations", never "converge somewhere nearby". A seed that fails
// the Eq. 1 validation (a diverged or corrupted entry) is discarded and
// the cold start runs instead; faster must mean identical, so nothing
// looser than exact reuse is ever attempted.
//
// This is the amortization the fast-RD-histogram and PPT-Multicore lines
// of work argue for: the analytical model stays cheap enough for on-line
// use because repeated questions are answered from solved state.

package core

import (
	"math"
	"strconv"
	"sync"

	"mpmc/internal/cache"
)

// SolverStateStats is a snapshot of a SolverState's counters.
type SolverStateStats struct {
	Hits     uint64 // seeds accepted (replayed bit-exactly)
	Misses   uint64 // cold solves recorded
	Rejected uint64 // seeds that failed validation and fell back cold
	Entries  int    // solved groups currently resident

	// Watts-memo counters: averaged per-group power estimates reused by
	// CombinedModel.estimateGroup (see appendWattsKey).
	WattsHits    uint64
	WattsMisses  uint64
	WattsEntries int
}

// SolverState memoizes converged equilibrium solutions so repeated solves
// of recurring co-run groups skip the Newton/bisection search entirely.
// Keys are built from the *identity* of the feature vectors (pointer
// identity, not names), the associativity, and the solver method, so two
// machine kinds profiling the same workload can never collide. All
// methods are safe for concurrent use. The zero value is not usable; use
// NewSolverState.
type SolverState struct {
	mu   sync.Mutex
	ids  map[*FeatureVector]uint64
	next uint64

	lru *cache.LRUMap[[]float64]

	hits, misses, rejected uint64

	// The watts memo rides on the same identity table: one cache group's
	// Eq. 10 busy-power average is a pure function of the power model, the
	// solver method, the associativity, and the per-core candidate lists,
	// so CombinedModel.estimateGroup can reuse it bit-exactly. Power
	// models get identity ids like feature vectors do — a fleet shares one
	// SolverState across nodes whose power models may differ.
	pmids          map[*PowerModel]uint64
	wlru           *cache.LRUMap[float64]
	whits, wmisses uint64
}

// DefaultSolverStateCap bounds a SolverState built with capacity 0.
const DefaultSolverStateCap = 4096

// NewSolverState builds a solver-state handle bounding at most capacity
// solved groups (0 = DefaultSolverStateCap).
func NewSolverState(capacity int) *SolverState {
	if capacity <= 0 {
		capacity = DefaultSolverStateCap
	}
	return &SolverState{
		ids:   make(map[*FeatureVector]uint64),
		lru:   cache.NewLRUMap[[]float64](capacity),
		pmids: make(map[*PowerModel]uint64),
		wlru:  cache.NewLRUMap[float64](capacity),
	}
}

// Stats returns a consistent snapshot of the counters.
func (st *SolverState) Stats() SolverStateStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return SolverStateStats{
		Hits: st.hits, Misses: st.misses, Rejected: st.rejected, Entries: st.lru.Len(),
		WattsHits: st.whits, WattsMisses: st.wmisses, WattsEntries: st.wlru.Len(),
	}
}

// Flush drops every recorded solution (and the identity table). Solutions
// are pure functions of their keys, so flushing is never required for
// correctness; it exists for callers that retire feature vectors in bulk
// (a power-model retrain rebuilds the serving stack) and want the memory
// back.
func (st *SolverState) Flush() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ids = make(map[*FeatureVector]uint64)
	st.next = 0
	st.lru = cache.NewLRUMap[[]float64](st.lru.Stats().Cap)
	st.pmids = make(map[*PowerModel]uint64)
	st.wlru = cache.NewLRUMap[float64](st.wlru.Stats().Cap)
}

// appendKey appends the identity of a contended solve to dst, the
// caller's scratch: probing with it allocates nothing, and only a recorded
// solution makes it a string. Feature identity is the pointer: vectors are
// immutable after construction, so the pointer names exactly one (machine
// kind, workload) profile for its lifetime; a re-profiled vector gets a
// fresh id and simply misses (deterministic profiling makes the recomputed
// entry bit-identical anyway).
func (st *SolverState) appendKey(dst []byte, features []*FeatureVector, assoc int, method SolverMethod) []byte {
	dst = strconv.AppendInt(dst, int64(method), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(assoc), 10)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range features {
		dst = append(dst, ':')
		dst = strconv.AppendUint(dst, st.idLocked(f), 36)
	}
	return dst
}

// idLocked returns f's identity id, assigning the next one on first sight
// (caller holds mu).
func (st *SolverState) idLocked(f *FeatureVector) uint64 {
	id, ok := st.ids[f]
	if !ok {
		st.next++
		id = st.next
		st.ids[f] = id
	}
	return id
}

// appendWattsKey appends the identity of one cache group's averaged
// busy-power estimate to dst: the power model and every candidate feature
// vector by identity id, the solver method, the associativity, and the
// per-core list structure (the '|' markers), which fixes the Eq. 10
// enumeration order.
func (st *SolverState) appendWattsKey(dst []byte, pm *PowerModel, method SolverMethod, assoc int, asg Assignment, busy []int) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	pid, ok := st.pmids[pm]
	if !ok {
		st.next++
		pid = st.next
		st.pmids[pm] = pid
	}
	dst = strconv.AppendUint(dst, pid, 36)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(method), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(assoc), 10)
	for _, c := range busy {
		dst = append(dst, '|')
		for _, f := range asg[c] {
			dst = append(dst, ':')
			dst = strconv.AppendUint(dst, st.idLocked(f), 36)
		}
	}
	return dst
}

// wattsSeed returns the recorded busy-power average for key. No
// validation pass exists here — the value is a finished scalar, not an
// iterative seed, so there is nothing to re-verify cheaper than
// recomputing it.
func (st *SolverState) wattsSeed(key []byte) (float64, bool) {
	v, ok := st.wlru.GetBytes(key)
	st.mu.Lock()
	if ok {
		st.whits++
	} else {
		st.wmisses++
	}
	st.mu.Unlock()
	return v, ok
}

// wattsRecord stores a computed busy-power average under key.
func (st *SolverState) wattsRecord(key []byte, v float64) {
	st.wlru.Put(string(key), v)
}

// seed returns the recorded solution for key when one exists and passes
// validation: the right arity, every size inside its (0, min(A, GMax)]
// box, and Eq. 1 (ΣS = A) within tolerance. A failing seed is dropped and
// reported as a divergence so the caller falls back to the cold start.
func (st *SolverState) seed(key []byte, features []*FeatureVector, a float64) ([]float64, bool) {
	sizes, ok := st.lru.GetBytes(key)
	if !ok {
		st.mu.Lock()
		st.misses++
		st.mu.Unlock()
		return nil, false
	}
	if validSizes(sizes, features, a) {
		st.mu.Lock()
		st.hits++
		st.mu.Unlock()
		return sizes, true
	}
	st.lru.Delete(string(key))
	st.mu.Lock()
	st.rejected++
	st.mu.Unlock()
	return nil, false
}

// record stores a converged solution under key.
func (st *SolverState) record(key []byte, sizes []float64) {
	st.lru.Put(string(key), sizes)
}

// validSizes checks the Eq. 1 invariants a converged contended solve must
// satisfy; anything else is a diverged seed.
func validSizes(sizes []float64, features []*FeatureVector, a float64) bool {
	if len(sizes) != len(features) {
		return false
	}
	tol := 1e-6 * a
	sum := 0.0
	for i, s := range sizes {
		if math.IsNaN(s) || s <= 0 || s > math.Min(a, features[i].GMax())+tol {
			return false
		}
		sum += s
	}
	return math.Abs(sum-a) <= tol
}
