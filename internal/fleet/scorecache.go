// Memoized group estimates: the fleet-level cache over one cache group's
// Eq. 10 pass.
//
// Every scoring pass — placement candidates, rebalance scans, cap checks,
// state and totals reports — reduces to solving cache groups to
// equilibrium, and the same group recurs constantly: a machine's resident
// groups are re-solved for every candidate slot, every policy consult, and
// every totals sample between sim events. The group-estimate memo
// (scoreCache) keeps what one enumeration of a group's combinations yields
// — the per-resident SPI *term list* and the busy cores' power average —
// keyed by the exact content that determines it (machine kind, solver,
// power model, busy cores and their resident workload names in order), so
// a recurring group costs one map lookup instead of an equilibrium solve.
//
// Byte-identity contract: a cached value must be indistinguishable —
// bit for bit — from recomputing it cold. Three properties deliver that:
//
//  1. Keys are content-addressed. Every input of a group's estimate
//     appears in the key: the machine kind name fixes the cache geometry
//     (and which profile a workload name resolves to — profiling is
//     deterministic per (fleet seed, kind, name), so equal names imply
//     bit-equal feature vectors within one fleet), the solver method fixes
//     the algorithm, the power model's number in the fleet fixes the watts,
//     and the per-core name lists fix the Eq. 10 enumeration. A key can
//     therefore never resolve to a stale value: any change to a group's
//     residents changes its key.
//  2. Values are term *lists* and the busy average, not subtotals. A node
//     total is one running float sum across groups in (group, busy core,
//     proc) order; float addition is not associative, so the memo stores
//     the flattened per-resident terms and callers replay the accumulation
//     in that order (see nodeEstimate and scoreNodeCold). The idle cores'
//     P_idle term stays outside the memo (two machines may share a name
//     but not a core count) and is recomputed with core.GroupWatts.
//  3. Hit/miss/shared counters are scheduling-dependent and never appear
//     in any golden or transcript; only the pure values do.
//
// Invalidation: content-addressing makes departures and rebalance moves
// self-invalidating (the old key is simply never built again and ages out
// of the LRU). FailNode/RestoreNode drop the affected node's current
// group keys eagerly, and FlushScoreCache drops everything — the hook a
// power-model retrain (which rebuilds the serving stack's models) uses.

package fleet

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"

	"mpmc/internal/cache"
	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/metrics"
)

// ScoreCacheStats is a snapshot of the score memo's counters. The sums
// obey lookups == hits + misses + shared: every lookup resolves to
// exactly one of a cache hit, a solve (counted as a miss even when the
// solve fails), or a ride on another caller's in-flight solve.
type ScoreCacheStats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	Shared      uint64
	Invalidated uint64
	Evictions   uint64 // term lists displaced at capacity
	Entries     int

	// Decision-memo counters (the second memo level: whole scoreNodeCold
	// results keyed by node identity + assignment content + arrival).
	// Every probe counts exactly once, as a hit or as a miss.
	DecisionHits      uint64
	DecisionMisses    uint64
	DecisionEvictions uint64
	DecisionEntries   int
}

// groupEntry is one memoized group estimate: the per-resident SPI terms
// (core.GroupEstimate.SPI) and the busy cores' power average
// (core.GroupEstimate.Busy), both from one enumeration.
type groupEntry struct {
	spi  []float64
	busy float64
}

// scoreCache memoizes group estimates behind a bounded LRU with
// singleflight deduplication, mirroring featureCache's shape. All methods
// are safe for concurrent use.
type scoreCache struct {
	lru    *cache.LRUMap[groupEntry]
	flight cache.Flight[groupEntry]

	// decisions memoizes whole scoreNodeCold results — the second memo level.
	// A decision is a pure function of the node identity (which fixes the
	// machine kind, power model, and MaxPerCore), the fleet's immutable
	// policy knobs, the assignment content, and the arrival's workload
	// name, so it obeys the same byte-identity contract the group memo
	// does. No singleflight: recomputing a decision is cheap once the
	// group memo is warm, so concurrent first scorers just race benignly.
	decisions *cache.LRUMap[nodeScore]

	// intercept is the fleet's fault-injection seam, consulted at site
	// "fleet.solve" (key = memo key) inside the singleflight before a
	// group is solved — the seam solve-count regression tests observe.
	intercept func(site, key string) error

	lookups, hits, misses, shared, invalidated atomic.Uint64
	dhits, dmisses                             atomic.Uint64
}

func newScoreCache(capacity int, intercept func(site, key string) error) *scoreCache {
	return &scoreCache{
		lru:       cache.NewLRUMap[groupEntry](capacity),
		decisions: cache.NewLRUMap[nodeScore](capacity),
		intercept: intercept,
	}
}

func (sc *scoreCache) stats() ScoreCacheStats {
	ls, ds := sc.lru.Stats(), sc.decisions.Stats()
	return ScoreCacheStats{
		Lookups:           sc.lookups.Load(),
		Hits:              sc.hits.Load(),
		Misses:            sc.misses.Load(),
		Shared:            sc.shared.Load(),
		Invalidated:       sc.invalidated.Load(),
		Evictions:         ls.Evictions,
		Entries:           ls.Len,
		DecisionHits:      sc.dhits.Load(),
		DecisionMisses:    sc.dmisses.Load(),
		DecisionEvictions: ds.Evictions,
		DecisionEntries:   ds.Len,
	}
}

// getDecision is the counted probe scoreFeasible makes: exactly one hit or
// miss per scored candidate. The key is the caller's scratch; probing
// allocates nothing.
func (sc *scoreCache) getDecision(key []byte) (nodeScore, bool) {
	s, ok := sc.decisions.GetBytes(key)
	if ok {
		sc.dhits.Add(1)
	} else {
		sc.dmisses.Add(1)
	}
	return s, ok
}

func (sc *scoreCache) putDecision(key string, s nodeScore) {
	sc.decisions.Put(key, s)
}

// get returns the memoized group estimate for key, solving via compute on
// a miss. The key is the caller's scratch: a hit allocates nothing, and
// only a miss makes it a string. Errors are never cached (an injected or
// solver failure must not poison later lookups).
func (sc *scoreCache) get(kb []byte, compute func() (groupEntry, error)) (groupEntry, error) {
	sc.lookups.Add(1)
	if v, ok := sc.lru.GetBytes(kb); ok {
		sc.hits.Add(1)
		return v, nil
	}
	key := string(kb)
	var innerHit bool
	v, err, shared := sc.flight.Do(key, func() (groupEntry, error) {
		if v, ok := sc.lru.Get(key); ok {
			innerHit = true
			return v, nil
		}
		if sc.intercept != nil {
			if err := sc.intercept("fleet.solve", key); err != nil {
				return groupEntry{}, err
			}
		}
		v, err := compute()
		if err != nil {
			return groupEntry{}, err
		}
		sc.lru.Put(key, v)
		return v, nil
	})
	switch {
	case shared:
		sc.shared.Add(1)
	case err == nil && innerHit:
		sc.hits.Add(1)
	default:
		sc.misses.Add(1)
	}
	return v, err
}

// invalidate drops one key, counting it only if it was resident.
func (sc *scoreCache) invalidate(key string) {
	if sc.lru.Delete(key) {
		sc.invalidated.Add(1)
	}
}

// flush drops every memoized group estimate and placement decision.
func (sc *scoreCache) flush() {
	for _, k := range sc.lru.Keys() {
		sc.invalidate(k)
	}
	for _, k := range sc.decisions.Keys() {
		if sc.decisions.Delete(k) {
			sc.invalidated.Add(1)
		}
	}
}

// appendScoreKey appends the content identity of one cache group's
// estimate to dst: the machine kind, the solver, the power model's number
// in the fleet (Fleet.powers), and every busy core of the group (in group
// order) with its resident workload names in order. The busy core IDs are
// included alongside the names: today two symmetric groups with equal
// residents would solve to equal terms, but per-core factors
// (machine.CoreSpeed) may one day enter the SPI terms, and the key must
// already name every input that could. The separators cannot occur in
// machine or workload names.
func appendScoreKey(dst []byte, m *machine.Machine, solver core.SolverMethod, power int, group []int, asg core.Assignment) []byte {
	dst = append(dst, m.Name...)
	dst = append(dst, '\x00')
	dst = strconv.AppendInt(dst, int64(solver), 10)
	dst = append(dst, '\x00')
	dst = strconv.AppendInt(dst, int64(power), 10)
	for _, c := range group {
		if len(asg[c]) == 0 {
			continue
		}
		dst = append(dst, '\x01')
		dst = strconv.AppendInt(dst, int64(c), 10)
		for _, f := range asg[c] {
			dst = append(dst, '\x02')
			dst = append(dst, f.Name...)
		}
	}
	return dst
}

// appendDecisionKey appends the content identity of one node's placement
// decision for an arrival to dst: the node name (which pins the machine
// kind, power model, and MaxPerCore — all immutable per fleet), the
// arrival's workload name, the node's assignment suffix (decisionSuffix),
// and the rung when it is off base. The fleet-wide policy, ceiling, and
// solver are constants of the fleet the memo lives in, so they need no key
// bytes.
func appendDecisionKey(dst []byte, n *node, feat *core.FeatureVector, suffix string, fix int) []byte {
	dst = append(dst, n.cfg.Name...)
	dst = append(dst, '\x00')
	dst = append(dst, feat.Name...)
	dst = append(dst, suffix...)
	if fix != n.cfg.Machine.Freq.BaseIx() {
		// Off-base decisions depend on the rung (the frequency-aware
		// policies price SPI/watts at it); base-state keys carry zero
		// extra bytes so legacy memo keys are unchanged.
		dst = append(dst, '\x03')
		dst = strconv.AppendInt(dst, int64(fix), 10)
	}
	return dst
}

// decisionSuffix serializes the assignment-content half of a decision key:
// every core's resident workload names in order (empty cores included:
// admissibility depends on per-core occupancy). The fleet caches it per
// node alongside the assignment snapshot, so a probe walks no assignment.
func decisionSuffix(asg core.Assignment) string {
	size := 0
	for _, procs := range asg {
		size++
		for _, f := range procs {
			size += len(f.Name) + 1
		}
	}
	buf := make([]byte, 0, size)
	for _, procs := range asg {
		buf = append(buf, '\x01')
		for _, f := range procs {
			buf = append(buf, '\x02')
			buf = append(buf, f.Name...)
		}
	}
	return string(buf)
}

// idleCores counts the group's cores that host no process.
func idleCores(group []int, asg core.Assignment) int {
	idle := 0
	for _, c := range group {
		if len(asg[c]) == 0 {
			idle++
		}
	}
	return idle
}

// groupEstimate runs (or recalls) one Eq. 10 pass of cache group gi of one
// node's assignment through the group-estimate memo: a miss enumerates the
// group's combinations once, reading out both the SPI terms and the busy
// power, and a hit serves whichever read asks for; the idle cores' term is
// recomputed either way. With caching disabled (and for an idle group) the
// pass reads out only what read asks for. The combinations are solved
// through tab, the calling operation's table. Every executed pass that
// reads SPI — every memo miss, and a cold pass asked for SPI: real
// equilibrium solves of one cache group, the unit of work predicates exist
// to avoid — bumps the fleet's solver-invocation counter; memo hits and
// idle groups do not, so SolverInvocations measures solve work, not
// demand. With caching disabled the SPI terms are written into
// *buf, which the caller owns and which keeps any growth; a memo's terms
// are its own. The memo key is built in sc.
func (f *Fleet) groupEstimate(ctx context.Context, tab *core.ComboTable, sc *scoreScratch, n *node, asg core.Assignment, gi int, read core.Readout, buf *[]float64) (core.GroupEstimate, error) {
	m := n.cfg.Machine
	group := m.Groups[gi]
	idle := idleCores(group, asg)
	if f.scores == nil || idle == len(group) {
		if idle < len(group) && read&core.ReadSPI != 0 {
			f.solves.Add(1)
		}
		est, err := tab.EstimateGroup(ctx, n.cm, asg, gi, read, *buf)
		if est.SPI != nil {
			*buf = est.SPI
		}
		return est, err
	}
	sc.key = appendScoreKey(sc.key[:0], m, n.cm.Solver, n.power, group, asg)
	e, err := f.scores.get(sc.key, func() (groupEntry, error) {
		f.solves.Add(1)
		est, err := tab.EstimateGroup(ctx, n.cm, asg, gi, core.ReadSPI|core.ReadWatts, nil)
		return groupEntry{spi: est.SPI, busy: est.Busy}, err
	})
	if err != nil {
		return core.GroupEstimate{}, err
	}
	var est core.GroupEstimate
	if read&core.ReadSPI != 0 {
		est.SPI = e.spi
	}
	if read&core.ReadWatts != 0 {
		est.Watts = n.cm.GroupWatts(idle, e.busy)
	}
	return est, nil
}

// nodeEstimate is every whole-node Eq. 10 pass the fleet makes: one node's
// assignment (asg may be a tentative one), its total predicted SPI — one
// term per RESIDENT, every group's terms (see core.GroupEstimate.SPI)
// accumulated into one running total in (group, busy core, arrival) order
// — and its estimated watts, the groups' Watts summed in group order, each
// read out only when read asks for it. The sums replay core's
// whole-assignment estimate bit for bit, and a read that includes watts
// validates asg first, as that estimate does. Counting SPI per resident —
// not per core — is what makes the metric comparable across layouts:
// migrating a process from a time-shared core to an idle machine keeps the
// number of terms fixed and only changes their contention, so an
// improvement is a real predicted speed-up, not an artifact of the
// accounting. Callers hold the fleet lock: the solves go through its
// table.
func (f *Fleet) nodeEstimate(ctx context.Context, n *node, asg core.Assignment, read core.Readout) (spi, watts float64, err error) {
	if read&core.ReadWatts != 0 {
		if err := n.cm.Validate(asg); err != nil {
			return 0, 0, err
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	for gi := range n.cfg.Machine.Groups {
		est, err := f.groupEstimate(ctx, f.ctab, sc, n, asg, gi, read, &sc.cand)
		if err != nil {
			return 0, 0, err
		}
		for _, t := range est.SPI {
			spi += t
		}
		watts += est.Watts
	}
	return spi, watts, nil
}

// scoreScratch is the reusable memory of one scoring call, taken from a
// free list per call so fanned-out scorers never share one.
type scoreScratch struct {
	base []core.GroupEstimate
	// spi[g] holds base group g's SPI terms, cand a candidate group's.
	spi  [][]float64
	cand []float64
	// next and ext spell out withAddition's tentative assignment.
	next core.Assignment
	ext  []*core.FeatureVector
	// key holds the group-estimate memo key being probed.
	key []byte
}

var scratches = cache.FreeList[scoreScratch]{New: func() *scoreScratch { return new(scoreScratch) }}

func getScratch() *scoreScratch { return scratches.Get() }

// putScratch releases sc without the assignment it last spelt out, so a
// free scratch keeps no feature vector alive.
func putScratch(sc *scoreScratch) {
	clear(sc.next[:cap(sc.next)])
	clear(sc.ext[:cap(sc.ext)])
	scratches.Put(sc)
}

// withAddition returns asg with feat appended to core c, spelt out in the
// scratch: every untouched core's slice is asg's own, core c's is the
// scratch's copy, so asg is never written through. The result is read-only
// and valid until the next call.
func (sc *scoreScratch) withAddition(asg core.Assignment, feat *core.FeatureVector, c int) core.Assignment {
	sc.next = append(sc.next[:0], asg...)
	sc.ext = append(append(sc.ext[:0], asg[c]...), feat)
	sc.next[c] = sc.ext
	return sc.next
}

// invalidateNodeLocked drops the memo entries for the node's current
// groups. Content keys cannot go stale, so this is hygiene, not
// correctness: a failed machine's groups are dead weight the LRU should
// not have to age out. Called with the fleet lock held.
func (f *Fleet) invalidateNodeLocked(n *node) {
	if f.scores == nil {
		return
	}
	m := n.cfg.Machine
	asg := f.assignmentOf(n)
	for _, group := range m.Groups {
		if idleCores(group, asg) < len(group) {
			f.scores.invalidate(string(appendScoreKey(nil, m, n.cm.Solver, n.power, group, asg)))
		}
	}
	// Decision keys embed arrival names the node cannot enumerate, so the
	// node's decisions are found by their unambiguous "<name>\x00" prefix.
	prefix := n.cfg.Name + "\x00"
	for _, k := range f.scores.decisions.Keys() {
		if strings.HasPrefix(k, prefix) && f.scores.decisions.Delete(k) {
			f.scores.invalidated.Add(1)
		}
	}
}

// ScoreCacheStats snapshots the score memo's counters (zero value when
// caching is disabled). The counters are scheduling-dependent under
// concurrency — they belong in logs and tests, never in goldens.
func (f *Fleet) ScoreCacheStats() ScoreCacheStats {
	if f.scores == nil {
		return ScoreCacheStats{}
	}
	return f.scores.stats()
}

// SolverStateStats snapshots the shared equilibrium solver-state counters
// (zero value when caching is disabled).
func (f *Fleet) SolverStateStats() core.SolverStateStats {
	if f.solver == nil {
		return core.SolverStateStats{}
	}
	return f.solver.Stats()
}

// collectMemoStats mirrors the memo counters into the registry at scrape
// time, so a placement pays nothing for them: hits, misses and evictions
// of the group-estimate memo ("score"), the decision memo ("decision"), and
// the solver state's solutions ("solver").
func (f *Fleet) collectMemoStats(r *metrics.Registry) {
	sc, st := f.ScoreCacheStats(), f.SolverStateStats()
	for _, m := range []struct {
		memo                    string
		hits, misses, evictions uint64
	}{
		{"score", sc.Hits, sc.Misses, sc.Evictions},
		{"decision", sc.DecisionHits, sc.DecisionMisses, sc.DecisionEvictions},
		{"solver", st.Hits, st.Misses, st.Evictions},
	} {
		label := `{memo="` + m.memo + `"}`
		r.Counter("fleet_memo_hits_total" + label).Raise(m.hits)
		r.Counter("fleet_memo_misses_total" + label).Raise(m.misses)
		r.Counter("fleet_memo_evictions_total" + label).Raise(m.evictions)
	}
}

// FlushScoreCache drops every memoized group estimate and recorded
// equilibrium solution. Values are pure functions of their keys, so
// flushing never changes any result; call it when the models behind the
// fleet are rebuilt in place (a power-model retrain) or to release
// memory.
func (f *Fleet) FlushScoreCache() {
	f.lock()
	defer f.unlock()
	if f.scores != nil {
		f.scores.flush()
	}
	if f.solver != nil {
		f.solver.Flush()
	}
}
