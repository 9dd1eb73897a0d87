package cache

import (
	"sort"
	"testing"
	"testing/quick"

	"mpmc/internal/xrand"
)

func newLRU(sets, assoc int) *Cache {
	return New(Config{NumSets: sets, Assoc: assoc, Policy: LRU, Seed: 1})
}

// line is one resident line decoded from its word.
type line struct {
	id         uint64
	owner      uint8
	prefetched bool
}

func decodeLine(w uint64) line {
	return line{id: w >> idShift, owner: wordOwner(w), prefetched: w&prefetchedBit != 0}
}

// residents returns the valid lines of set si: under LRU most recently
// used first, by stamp, and otherwise in way order.
func residents(c *Cache, si int) []line {
	base := si * c.cfg.Assoc
	slots := make([]int, c.count[si])
	for i := range slots {
		slots[i] = base + i
	}
	if c.cfg.Policy == LRU {
		sort.Slice(slots, func(a, b int) bool { return c.stamps[slots[a]] > c.stamps[slots[b]] })
	}
	out := make([]line, len(slots))
	for i, slot := range slots {
		out[i] = decodeLine(c.lines[slot])
	}
	return out
}

func TestBasicHitMiss(t *testing.T) {
	c := newLRU(1, 2)
	if c.Access(0, 0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0, 0) {
		t.Fatal("warm access missed")
	}
	st := c.Stats(0)
	if st.Accesses != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.MPA() != 0.5 {
		t.Fatalf("MPA %v", st.MPA())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 1 set, 2 ways: lines 0,1 fill it; accessing 0 makes 1 the LRU;
	// inserting 2 must evict 1.
	c := newLRU(1, 2)
	c.Access(0, 0)
	c.Access(0, 1)
	c.Access(0, 0)
	c.Access(0, 2) // evicts 1
	if !c.Access(0, 0) {
		t.Fatal("line 0 should have survived")
	}
	if c.Access(0, 1) {
		t.Fatal("line 1 should have been evicted")
	}
}

func TestLRUCyclicPathology(t *testing.T) {
	// Classic LRU property: cycling over assoc+1 lines in one set misses
	// every access after warm-up.
	c := newLRU(1, 4)
	for warm := 0; warm < 5; warm++ {
		for id := uint64(0); id < 5; id++ {
			c.Access(0, id)
		}
	}
	c.ResetStats()
	for rep := 0; rep < 10; rep++ {
		for id := uint64(0); id < 5; id++ {
			c.Access(0, id)
		}
	}
	st := c.Stats(0)
	if st.Misses != st.Accesses {
		t.Fatalf("expected all misses, got %d/%d", st.Misses, st.Accesses)
	}
}

func TestLRUWorkingSetFits(t *testing.T) {
	// Cycling over exactly assoc lines hits every access after warm-up.
	c := newLRU(1, 4)
	for id := uint64(0); id < 4; id++ {
		c.Access(0, id)
	}
	c.ResetStats()
	for rep := 0; rep < 10; rep++ {
		for id := uint64(0); id < 4; id++ {
			if !c.Access(0, id) {
				t.Fatalf("unexpected miss on line %d rep %d", id, rep)
			}
		}
	}
}

func TestSetMapping(t *testing.T) {
	c := newLRU(4, 1)
	// Lines 0 and 4 map to set 0 and conflict; lines 1,2,3 do not.
	c.Access(0, 0)
	c.Access(0, 1)
	c.Access(0, 2)
	c.Access(0, 3)
	if !c.Access(0, 0) {
		t.Fatal("distinct sets should not conflict")
	}
	c.Access(0, 4) // evicts 0 in set 0
	if c.Access(0, 0) {
		t.Fatal("conflicting line should have evicted 0")
	}
}

func TestOwnersAreDisjoint(t *testing.T) {
	c := newLRU(1, 2)
	c.Access(0, 7)
	if c.Access(1, 7) {
		t.Fatal("owner 1 hit on owner 0's line")
	}
	if !c.Access(0, 7) || !c.Access(1, 7) {
		t.Fatal("both owners should now hit their own copies")
	}
}

func TestContentionEviction(t *testing.T) {
	// Owner 1 streaming through a set pushes owner 0's line out.
	c := newLRU(1, 2)
	c.Access(0, 0)
	c.Access(1, 1)
	c.Access(1, 2) // set full of owner 1... wait: way count 2; 0 evicted here
	if c.Access(0, 0) {
		t.Fatal("owner 0's line should have been evicted by owner 1's stream")
	}
}

func TestOccupancyAccounting(t *testing.T) {
	c := newLRU(2, 2)
	c.Access(0, 0) // set 0
	c.Access(0, 1) // set 1
	c.Access(1, 2) // set 0
	if c.Occupancy(0) != 2 || c.Occupancy(1) != 1 {
		t.Fatalf("occupancy %d %d", c.Occupancy(0), c.Occupancy(1))
	}
	if c.AvgWays(0) != 1.0 {
		t.Fatalf("avg ways %v", c.AvgWays(0))
	}
	// Fill set 0 and push owner 0's line out.
	c.Access(1, 4) // set 0: ways now hold owner1:{2,4}, owner0's 0 evicted
	if c.Occupancy(0) != 1 || c.Occupancy(1) != 2 {
		t.Fatalf("after eviction: occupancy %d %d", c.Occupancy(0), c.Occupancy(1))
	}
}

func TestOccupancyInvariantProperty(t *testing.T) {
	// Σ occupancy == number of valid lines ≤ sets × assoc, for random
	// access streams across policies.
	for _, pol := range []Policy{LRU, Random, PLRU} {
		pol := pol
		if err := quick.Check(func(seed uint64) bool {
			r := xrand.New(seed)
			c := New(Config{NumSets: 4, Assoc: 4, Policy: pol, Seed: seed})
			owners := 3
			for i := 0; i < 2000; i++ {
				c.Access(r.Intn(owners), uint64(r.Intn(64)))
			}
			total := 0
			for o := 0; o < owners; o++ {
				total += c.Occupancy(o)
			}
			if total > 4*4 {
				return false
			}
			// Recount from actual contents.
			count := 0
			perOwner := make([]int, owners)
			for si := 0; si < 4; si++ {
				for _, l := range residents(c, si) {
					count++
					perOwner[l.owner]++
				}
			}
			for o := 0; o < owners; o++ {
				if perOwner[o] != c.Occupancy(o) {
					return false
				}
			}
			return count == total
		}, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
	}
}

func TestNoDuplicateLinesProperty(t *testing.T) {
	// A (owner, lineID) pair never occupies two ways of a set.
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		c := New(Config{NumSets: 2, Assoc: 4, Policy: LRU, Seed: seed, Prefetch: seed%2 == 0})
		for i := 0; i < 3000; i++ {
			c.Access(r.Intn(2), uint64(r.Intn(24)))
		}
		for si := 0; si < 2; si++ {
			seen := map[[2]uint64]bool{}
			for _, l := range residents(c, si) {
				key := [2]uint64{uint64(l.owner), l.id}
				if seen[key] || int(l.id%2) != si {
					return false
				}
				seen[key] = true
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLRURecencyConsistencyProperty(t *testing.T) {
	// Each LRU set holds its lines MRU-first: the segment always equals
	// the distinct (owner, line) pairs of the set's access history, most
	// recent first, cut at the associativity.
	if err := quick.Check(func(seed uint64) bool {
		r := xrand.New(seed)
		c := newLRU(2, 8)
		var history [2][]line
		for i := 0; i < 5000; i++ {
			l := line{owner: uint8(r.Intn(3)), id: uint64(r.Intn(48))}
			c.Access(int(l.owner), l.id)
			h := history[l.id%2]
			for j, x := range h {
				if x == l {
					h = append(h[:j], h[j+1:]...)
					break
				}
			}
			history[l.id%2] = append([]line{l}, h...)
		}
		for si := range history {
			got := residents(c, si)
			if len(got) != 8 {
				return false
			}
			for j, l := range got {
				if l != history[si][j] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchNextLine(t *testing.T) {
	c := New(Config{NumSets: 4, Assoc: 2, Policy: LRU, Prefetch: true, Seed: 1})
	c.Access(0, 0) // miss; prefetches line 1 (set 1)
	if !c.Access(0, 1) {
		t.Fatal("next line should have been prefetched")
	}
	st := c.Stats(0)
	if st.PrefetchFill == 0 || st.PrefetchHit == 0 {
		t.Fatalf("prefetch counters %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("prefetch hit should not count as miss: %+v", st)
	}
}

func TestPrefetchHelpsStreaming(t *testing.T) {
	// Sequential streaming: with prefetch, steady-state misses halve
	// (every other line comes from the prefetcher).
	run := func(prefetch bool) float64 {
		c := New(Config{NumSets: 16, Assoc: 4, Policy: LRU, Prefetch: prefetch, Seed: 1})
		for id := uint64(0); id < 100000; id++ {
			c.Access(0, id)
		}
		return c.Stats(0).MPA()
	}
	without := run(false)
	with := run(true)
	if without < 0.99 {
		t.Fatalf("streaming without prefetch should always miss, MPA=%v", without)
	}
	if with > 0.55 {
		t.Fatalf("next-line prefetch should roughly halve misses, MPA=%v", with)
	}
}

func TestRandomPolicyStillBounded(t *testing.T) {
	c := New(Config{NumSets: 2, Assoc: 2, Policy: Random, Seed: 3})
	r := xrand.New(4)
	for i := 0; i < 1000; i++ {
		c.Access(0, uint64(r.Intn(8)))
	}
	if c.Occupancy(0) > 4 {
		t.Fatalf("occupancy %d exceeds capacity", c.Occupancy(0))
	}
}

func TestPLRUApproximatesLRU(t *testing.T) {
	// On a small working set that fits, PLRU must also converge to all
	// hits (it never evicts the just-touched line).
	c := New(Config{NumSets: 1, Assoc: 8, Policy: PLRU, Seed: 5})
	for rep := 0; rep < 3; rep++ {
		for id := uint64(0); id < 8; id++ {
			c.Access(0, id)
		}
	}
	c.ResetStats()
	for rep := 0; rep < 10; rep++ {
		for id := uint64(0); id < 8; id++ {
			c.Access(0, id)
		}
	}
	if st := c.Stats(0); st.Misses != 0 {
		t.Fatalf("PLRU evicted resident working set: %+v", st)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := newLRU(1, 2)
	c.Access(0, 0)
	c.ResetStats()
	if st := c.Stats(0); st.Accesses != 0 || st.Misses != 0 {
		t.Fatal("stats not cleared")
	}
	if !c.Access(0, 0) {
		t.Fatal("contents should survive ResetStats")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{NumSets: 0, Assoc: 1}, {NumSets: 1, Assoc: 0}, {NumSets: 1, Assoc: 256},
		// PLRU's heap-indexed tree bits live in one uint32: a wider set
		// would lose bits silently and degenerate the victim walk.
		{NumSets: 1, Assoc: MaxPLRUAssoc + 1, Policy: PLRU},
		// More sets would let generated line IDs pass MaxLineID.
		{NumSets: MaxSets + 1, Assoc: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v accepted", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestWidestSetsConstruct(t *testing.T) {
	// The PLRU width limit binds PLRU only.
	for _, cfg := range []Config{
		{NumSets: 2, Assoc: MaxPLRUAssoc, Policy: PLRU},
		{NumSets: 2, Assoc: 255, Policy: LRU},
		{NumSets: 2, Assoc: 255, Policy: Random},
	} {
		c := New(cfg)
		for id := uint64(0); id < 1200; id++ {
			c.Access(0, id%600)
		}
		if got := c.Occupancy(0); got != 2*cfg.Assoc {
			t.Fatalf("%+v: occupancy %d, want the full cache", cfg, got)
		}
	}
}

func TestAccessDoesNotAllocate(t *testing.T) {
	for _, pol := range []Policy{LRU, Random, PLRU} {
		c := New(Config{NumSets: 8, Assoc: 4, Policy: pol, Prefetch: true, Seed: 1})
		r := xrand.New(5)
		if n := testing.AllocsPerRun(1000, func() { c.Access(r.Intn(3), uint64(r.Intn(96))) }); n != 0 {
			t.Fatalf("%v: Access allocates %v objects", pol, n)
		}
	}
}

// TestNewAllocations pins what New allocates: the Cache, one array of line
// words (the LRU stamps ride in it), one array of bytes (the per-set counts
// and the way predictor), the generator, and PLRU's tree bits.
func TestNewAllocations(t *testing.T) {
	for _, tc := range []struct {
		pol  Policy
		want float64
	}{{LRU, 4}, {Random, 4}, {PLRU, 5}} {
		for _, prefetch := range []bool{false, true} {
			cfg := Config{NumSets: 48, Assoc: 12, Policy: tc.pol, Prefetch: prefetch, Seed: 1}
			if n := testing.AllocsPerRun(10, func() { New(cfg) }); n != tc.want {
				t.Errorf("%v prefetch=%v: New allocates %v objects, want %v", tc.pol, prefetch, n, tc.want)
			}
		}
	}
}

// TestStalePredictionNeverHits: the predictor byte of a line keeps naming
// the way the line was last seen in after the line is evicted and the way
// refilled, by another owner's line with the same ID or by a line with
// another ID. A lookup through that byte must miss, under every policy.
func TestStalePredictionNeverHits(t *testing.T) {
	for _, pol := range []Policy{LRU, Random, PLRU} {
		// One set of two ways: the predictor has two bytes, so IDs 0 and
		// 2 share one.
		c := New(Config{NumSets: 1, Assoc: 2, Policy: pol, Seed: 1})
		c.Access(0, 0)
		c.Access(0, 1)
		for c.Occupancy(0) == 2 { // owner 1's copies of IDs 0 and 2 push owner 0's lines out
			c.Access(1, 0)
			c.Access(1, 2)
		}
		for _, id := range []uint64{0, 1} {
			resident := false
			for _, l := range residents(c, 0) {
				resident = resident || l == line{owner: 0, id: id}
			}
			if got := c.Access(0, id); got != resident {
				t.Fatalf("%v: owner 0, line %d: hit %v, resident %v; set %+v", pol, id, got, resident, residents(c, 0))
			}
		}
		// Same ID, other owner: owner 2 takes the way owner 1's line 0 was
		// predicted in, and owner 1's line 0 must not hit through it.
		c = New(Config{NumSets: 1, Assoc: 1, Policy: pol, Seed: 1})
		c.Access(1, 0)
		c.Access(2, 0)
		if c.Access(1, 0) {
			t.Fatalf("%v: owner 1 hit on owner 2's copy of line 0", pol)
		}
		if c.Stats(1).Misses != 2 || c.Stats(2).Misses != 1 {
			t.Fatalf("%v: stats %+v %+v", pol, c.Stats(1), c.Stats(2))
		}
	}
}

func TestOwnerRangePanics(t *testing.T) {
	c := newLRU(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Access(MaxOwners, 0)
}

// TestLineWordRoundTrip: every field of a line word decodes back exactly at
// the ends of its range, with no bit of one field in another.
func TestLineWordRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, MaxLineID - 1, MaxLineID} {
		for _, owner := range []uint8{0, 1, MaxOwners - 2, MaxOwners - 1} {
			for _, pf := range []bool{false, true} {
				want := line{id: id, owner: owner, prefetched: pf}
				if got := decodeLine(lineWord(owner, id, pf)); got != want {
					t.Fatalf("word of %+v decodes to %+v", want, got)
				}
			}
		}
	}

	// The same through the cache: the prefetcher fills MaxLineID for owner
	// 63 with its prefetched flag set.
	c := New(Config{NumSets: 1, Assoc: 4, Policy: LRU, Prefetch: true, Seed: 1})
	c.Access(MaxOwners-1, MaxLineID-1)
	want := []line{{id: MaxLineID - 1, owner: MaxOwners - 1}, {id: MaxLineID, owner: MaxOwners - 1, prefetched: true}}
	got := residents(c, 0)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("residents %+v, want %+v", got, want)
	}
	if !c.Access(MaxOwners-1, MaxLineID) || c.Stats(MaxOwners-1).PrefetchHit != 1 {
		t.Fatalf("prefetched MaxLineID not hit: %+v", c.Stats(MaxOwners-1))
	}
	if c.Access(MaxOwners-2, MaxLineID) {
		t.Fatal("owner 62 hit owner 63's line")
	}
}

// TestLineIDRange: a line ID above MaxLineID would alias another line in
// its word, so Access refuses it; and the prefetcher does not fill past
// MaxLineID.
func TestLineIDRange(t *testing.T) {
	c := New(Config{NumSets: 2, Assoc: 2, Policy: LRU, Prefetch: true, Seed: 1})
	if c.Access(0, MaxLineID) {
		t.Fatal("cold access hit")
	}
	if st := c.Stats(0); st.PrefetchFill != 0 || c.Occupancy(0) != 1 {
		t.Fatalf("prefetched past MaxLineID: %+v, occupancy %d", st, c.Occupancy(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("line ID above MaxLineID accepted")
		}
	}()
	c.Access(0, MaxLineID+1)
}

// TestPredictedHit: PredictedHit answers an LRU demand hit in the
// predicted way, on a line that was not prefetched, exactly as Access
// would; in every other case it reports false and changes nothing.
func TestPredictedHit(t *testing.T) {
	c := New(Config{NumSets: 64, Assoc: 16, Policy: LRU, Prefetch: true, Seed: 1})
	// Unfilled ways must not match: owner 0's line 0 packs to word 0.
	if c.PredictedHit(0, 0) || c.Stats(0) != (OwnerStats{}) {
		t.Fatalf("cold line 0 predicted a hit; stats %+v", c.Stats(0))
	}
	c.Access(0, 0) // miss; prefetches line 1
	if !c.PredictedHit(0, 0) {
		t.Fatal("resident line 0 not answered")
	}
	if st := c.Stats(0); st != (OwnerStats{Accesses: 2, Misses: 1, PrefetchFill: 1}) {
		t.Fatalf("stats after a predicted hit %+v", st)
	}
	// A prefetched line, an owner out of range and an ID above MaxLineID
	// (whose word would alias line 0's) all go to Access.
	before := c.Stats(0)
	for _, a := range []struct {
		owner int
		id    uint64
	}{{0, 1}, {-1, 0}, {MaxOwners, 0}, {0, MaxLineID + 1}, {0, 1 << 63}, {1, 0}} {
		if c.PredictedHit(a.owner, a.id) {
			t.Fatalf("owner %d, line %#x: predicted a hit", a.owner, a.id)
		}
	}
	if c.Stats(0) != before || c.Stats(1) != (OwnerStats{}) {
		t.Fatalf("a declined PredictedHit changed stats: %+v → %+v", before, c.Stats(0))
	}
	if !c.Access(0, 1) || c.Stats(0).PrefetchHit != 1 {
		t.Fatalf("prefetched line 1: stats %+v", c.Stats(0))
	}
	if !c.PredictedHit(0, 1) {
		t.Fatal("line 1 not answered once its demand hit cleared the prefetched flag")
	}
	// Only LRU caches whose set and predictor indices are masks answer.
	for _, cfg := range []Config{
		{NumSets: 64, Assoc: 16, Policy: Random},
		{NumSets: 64, Assoc: 16, Policy: PLRU},
		{NumSets: 48, Assoc: 12, Policy: LRU},
		{NumSets: 1, Assoc: 4, Policy: LRU},
	} {
		c := New(cfg)
		c.Access(0, 5)
		if c.PredictedHit(0, 5) || !c.Access(0, 5) {
			t.Fatalf("%+v: PredictedHit answered", cfg)
		}
	}
}

func TestSoloMPAMatchesStackDistance(t *testing.T) {
	// Ground-truth check that underpins the whole performance model: a
	// process whose accesses have reuse distance d hits in an A-way cache
	// iff d ≤ A. Generate a stream with known distances and verify.
	const assoc = 4
	c := newLRU(1, assoc)
	// Prime lines 0..5 (6 lines, distances will exceed assoc for the deep ones).
	for id := uint64(0); id < 6; id++ {
		c.Access(0, id)
	}
	c.ResetStats()
	// Access line 5's neighbourhood: line 5 has distance 1 (hit), line 2
	// has distance 4 (boundary hit), line 0 now has distance 6 (miss).
	if !c.Access(0, 5) {
		t.Fatal("distance-1 access missed")
	}
	if !c.Access(0, 2) {
		t.Fatal("distance-4 access should hit in 4-way set")
	}
	if c.Access(0, 0) {
		t.Fatal("distance-6 access should miss in 4-way set")
	}
}

func BenchmarkAccessLRU(b *testing.B) {
	c := New(Config{NumSets: 64, Assoc: 16, Policy: LRU, Seed: 1})
	r := xrand.New(2)
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = uint64(r.Intn(64 * 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, ids[i&4095])
	}
}

func BenchmarkAccessPLRU(b *testing.B) {
	c := New(Config{NumSets: 64, Assoc: 16, Policy: PLRU, Seed: 1})
	r := xrand.New(2)
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = uint64(r.Intn(64 * 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, ids[i&4095])
	}
}

func TestPLRUNeverEvictsJustTouched(t *testing.T) {
	// Tree-PLRU invariant: the way touched most recently is never the
	// next victim.
	c := New(Config{NumSets: 1, Assoc: 8, Policy: PLRU, Seed: 7})
	r := xrand.New(11)
	// Fill the set.
	for id := uint64(0); id < 8; id++ {
		c.Access(0, id)
	}
	resident := map[uint64]bool{}
	for id := uint64(0); id < 8; id++ {
		resident[id] = true
	}
	next := uint64(8)
	for i := 0; i < 5000; i++ {
		// Touch a random resident line, then insert a fresh one; the
		// fresh insertion must not evict the just-touched line.
		var touch uint64
		k := r.Intn(len(resident))
		for id := range resident {
			if k == 0 {
				touch = id
				break
			}
			k--
		}
		if !c.Access(0, touch) {
			t.Fatalf("resident line %d missed", touch)
		}
		c.Access(0, next)
		resident[next] = true
		next++
		if c.Access(0, touch) {
			// still resident — fine; re-touch counted, carry on
		} else {
			t.Fatalf("iteration %d: PLRU evicted the just-touched line", i)
		}
		// Rebuild the resident set from actual contents to stay in sync.
		for id := range resident {
			delete(resident, id)
		}
		for _, l := range residents(c, 0) {
			resident[l.id] = true
		}
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || Random.String() != "Random" || PLRU.String() != "PLRU" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}
