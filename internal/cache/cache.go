// Package cache implements the set-associative last-level cache model that
// stands in for the paper's hardware (Intel Core 2 shared L2 caches).
//
// The cache identifies lines by (owner, lineID): co-scheduled processes
// have disjoint address spaces, so two owners never share a line, but they
// do contend for the ways of the sets their lines map into — exactly the
// contention the paper models. Line lineID maps to set lineID mod NumSets.
//
// True LRU replacement is the paper's modeling assumption; random and
// tree-PLRU policies are provided for the "assumptions violated" ablation.
// An optional next-line prefetcher supports the Section 3.1 prefetching
// study.
//
// The cache is the inner loop of every simulated experiment, so it is laid
// out for the host: one flat array of 8-byte lines and a per-set count, no
// per-set allocations and no valid flags. A line is one word holding its ID,
// its owner and its prefetched flag, so a lookup compares one word per way.
// Lines never move once filled: LRU recency is a stamp per way, and a way
// predictor remembers the way each line ID was last seen in, so a hit is
// usually one compare and one store (see Cache).
package cache

import (
	"fmt"

	"mpmc/internal/xrand"
)

// Policy selects the replacement policy of a Cache.
type Policy int

const (
	// LRU is true least-recently-used replacement (the paper's assumption).
	LRU Policy = iota
	// Random evicts a uniformly random way.
	Random
	// PLRU is tree-based pseudo-LRU, the policy real Core 2 L2 caches
	// approximate; used to test the model when the LRU assumption is bent.
	PLRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case Random:
		return "Random"
	case PLRU:
		return "PLRU"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// MaxOwners bounds the number of distinct processes a cache tracks.
const MaxOwners = 64

// MaxLineID is the largest line ID a cache accepts: a line's word keeps the
// ID above its owner and prefetched bits.
const MaxLineID = 1<<57 - 1

// MaxSets is the most sets a cache may have. With it, every line ID the
// trace generators allocate stays within MaxLineID.
const MaxSets = 1 << 16

// MaxPLRUAssoc is the widest set the PLRU policy supports: its tree bits
// are heap-indexed into one 32-bit word per set.
const MaxPLRUAssoc = 32

// A resident cache line is one word, so a 16-way set spans two host cache
// lines: bit 0 is the prefetched flag, bits 1-6 the owner, and bits 7-63
// the line ID. Two lines are the same line exactly when their words agree
// above bit 0. A way no line has filled yet holds emptyWord, which has the
// prefetched bit set and so equals no demand key.
const (
	prefetchedBit = 1
	ownerShift    = 1
	idShift       = 7
	ownerMask     = MaxOwners - 1
	emptyWord     = ^uint64(0)
)

// lineWord packs a line. owner < MaxOwners and id <= MaxLineID.
func lineWord(owner uint8, id uint64, prefetched bool) uint64 {
	w := id<<idShift | uint64(owner)<<ownerShift
	if prefetched {
		w |= prefetchedBit
	}
	return w
}

// wordOwner returns the owner of a line word.
func wordOwner(w uint64) uint8 { return uint8(w >> ownerShift & ownerMask) }

// OwnerStats aggregates the demand-access statistics for one owner.
type OwnerStats struct {
	Accesses     uint64 // demand accesses
	Misses       uint64 // demand misses
	PrefetchFill uint64 // lines installed by the prefetcher
	PrefetchHit  uint64 // demand hits on prefetched lines
}

// MPA returns demand misses per demand access, or 0 with no accesses.
func (s OwnerStats) MPA() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Config describes a cache geometry and behaviour.
type Config struct {
	NumSets  int    // number of sets (> 0)
	Assoc    int    // ways per set (> 0)
	Policy   Policy // replacement policy
	Prefetch bool   // enable next-line prefetch on demand misses
	Seed     uint64 // RNG seed (Random policy and tie-breaking)
}

// Cache is a set-associative cache with per-owner statistics.
// It is not safe for concurrent use; the simulator is single-threaded per
// machine (hardware is inherently serialized at the shared cache).
//
// All lines live in one array of words: set s is
// lines[s·Assoc : s·Assoc+count[s]].
// A set fills left to right and nothing ever invalidates a line, so the
// first count[s] ways are exactly the valid ones; the others hold emptyWord.
// A line stays in the way it was filled into until it is evicted, under
// every policy: Random and PLRU name ways in their victim draw and tree
// bits, and LRU keeps its recency beside the ways rather than in their
// order.
//
// LRU recency is a stamp per way. A demand hit or fill stamps its way with
// the clock, which then counts up; a prefetch fill takes its stamp from a
// second counter that counts down below every demand stamp, which puts the
// line at the LRU end; a full set evicts the way with the smallest stamp.
// Each stamp is issued once (both counters start at 2^63 and have 2^55
// steps before they would wrap), so a set's stamps order it exactly as an
// MRU-first recency list would, and only misses read them. A stamp carries its way in
// its low byte, so the victim is the low byte of the set's minimum stamp.
//
// The way predictor keeps one byte per lineID mod NumSets·Assoc: the way
// that last held a line with that ID, for any owner. A lookup compares the
// predicted way first and scans the set only when that way holds some other
// line. The prediction is a hint, never an answer: a hit still needs the way
// to be valid and its word to match the owner and the ID, and a line
// occupies at most one way of its set, so the way the predictor finds is
// the way the scan would. Hits, misses, victims and statistics are the same
// with or without it. The stressmark walks lines k·NumSets + s for
// k < Assoc, one predictor byte each, so its hits never scan.
type Cache struct {
	cfg      Config
	lines    []uint64 // line words (see lineWord)
	stamps   []uint64 // per-way recency stamps, in lines' array after it; LRU only
	count    []uint8  // resident lines per set
	pred     []uint8  // way predictor, in count's array after it
	plruBits []uint32 // per-set PLRU tree state, heap-indexed; PLRU only
	setMask  uint64   // NumSets−1 if NumSets is a power of two above 1, else 0
	predMask uint64   // len(pred)−1 likewise
	assoc    uint64   // cfg.Assoc
	// fastOwners is MaxOwners when PredictedHit may answer (LRU, both
	// index masks), else 0, so that one compare tests this and the owner.
	fastOwners uint64
	clock      uint64 // the next demand stamp; counts up
	low        uint64 // the next prefetch stamp; counts down below every demand stamp
	rng        *xrand.Rand
	stats      [MaxOwners]OwnerStats
	occupancy  [MaxOwners]int // lines currently resident per owner
}

// stampStep advances the stamp counters past the way in a stamp's low byte.
const stampStep = 1 << 8

// New constructs a cache. It panics on invalid geometry (these are static
// experiment configurations, not runtime inputs).
func New(cfg Config) *Cache {
	if cfg.NumSets <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %d sets × %d ways", cfg.NumSets, cfg.Assoc))
	}
	if cfg.NumSets > MaxSets {
		panic(fmt.Sprintf("cache: %d sets above the maximum %d", cfg.NumSets, MaxSets))
	}
	if cfg.Assoc > 255 {
		panic("cache: associativity above 255 unsupported")
	}
	if cfg.Policy == PLRU && cfg.Assoc > MaxPLRUAssoc {
		panic(fmt.Sprintf("cache: PLRU associativity above %d unsupported", MaxPLRUAssoc))
	}
	slots := cfg.NumSets * cfg.Assoc
	words := slots
	if cfg.Policy == LRU {
		words *= 2
	}
	lines := make([]uint64, words)
	bytes := make([]uint8, cfg.NumSets+slots)
	c := &Cache{
		cfg:      cfg,
		lines:    lines[:slots:slots],
		count:    bytes[:cfg.NumSets:cfg.NumSets],
		pred:     bytes[cfg.NumSets:],
		setMask:  indexMask(cfg.NumSets),
		predMask: indexMask(slots),
		assoc:    uint64(cfg.Assoc),
		clock:    1 << 63,
		low:      1<<63 - stampStep,
		rng:      xrand.New(cfg.Seed ^ 0xcafef00d),
	}
	for i := range c.lines {
		c.lines[i] = emptyWord
	}
	if cfg.Policy == LRU {
		c.stamps = lines[slots:]
		if c.setMask != 0 && c.predMask != 0 {
			c.fastOwners = MaxOwners
		}
	}
	if cfg.Policy == PLRU {
		c.plruBits = make([]uint32, cfg.NumSets)
	}
	return c
}

// indexMask returns n−1 when n is a power of two above 1, so that an index
// mod n is a mask, and 0 otherwise.
func indexMask(n int) uint64 {
	if n > 1 && n&(n-1) == 0 {
		return uint64(n - 1)
	}
	return 0
}

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.cfg.Assoc }

// Access performs a demand access by owner to lineID and reports whether it
// hit. A hit promotes the line. A miss installs the line (evicting per
// policy) and, if prefetching is enabled and lineID+1 is absent, fills
// lineID+1 at the LRU end, unless lineID is MaxLineID: a wrong prefetch is
// evicted first and barely pollutes the set. It panics on a line ID above
// MaxLineID.
func (c *Cache) Access(owner int, lineID uint64) bool {
	c.checkOwner(owner)
	if lineID > MaxLineID {
		panic(fmt.Sprintf("cache: line ID %#x above MaxLineID", lineID))
	}
	st := &c.stats[owner]
	st.Accesses++
	si, pi := c.index(lineID)
	key := lineWord(uint8(owner), lineID, false)
	if w := c.find(si, pi, key); w >= 0 {
		slot := si*c.cfg.Assoc + w
		if c.lines[slot]&prefetchedBit != 0 {
			c.lines[slot] = key
			st.PrefetchHit++
		}
		switch c.cfg.Policy {
		case LRU:
			c.stamps[slot] = c.clock | uint64(w)
			c.clock += stampStep
		case PLRU:
			c.plruTouch(si, w)
		}
		return true
	}
	st.Misses++
	c.fill(si, pi, key)
	if c.cfg.Prefetch && lineID < MaxLineID {
		si, pi := c.index(lineID + 1)
		if key := lineWord(uint8(owner), lineID+1, false); c.find(si, pi, key) < 0 {
			c.fill(si, pi, key|prefetchedBit)
			st.PrefetchFill++
		}
	}
	return false
}

// PredictedHit performs Access's common case and reports whether it did:
// an LRU demand hit in the way the predictor names, on a line that was not
// prefetched. Then it has done everything Access would, and Access must not
// be called; otherwise it has changed nothing, and the caller calls Access.
// It is small enough to inline into a caller's loop, so such a hit is a
// compare and two stores with no call. A key matches only its own line's
// word, and that word sits in no set but its own, so a match is the hit
// Access would find.
func (c *Cache) PredictedHit(owner int, lineID uint64) bool {
	if uint64(owner) >= c.fastOwners || lineID > MaxLineID {
		return false
	}
	// An unfilled way holds emptyWord, so the compare needs no count check.
	si, w := lineID&c.setMask, uint64(c.pred[lineID&c.predMask])
	slot := si*c.assoc + w
	if c.lines[slot] != lineID<<idShift|uint64(owner)<<ownerShift {
		return false
	}
	c.stats[owner].Accesses++
	c.stamps[slot] = c.clock | w
	c.clock += stampStep
	return true
}

// index returns lineID's set and predictor byte.
func (c *Cache) index(lineID uint64) (si, pi int) {
	if c.setMask != 0 {
		si = int(lineID & c.setMask)
	} else {
		si = int(lineID % uint64(c.cfg.NumSets))
	}
	if c.predMask != 0 {
		pi = int(lineID & c.predMask)
	} else {
		pi = int(lineID % uint64(len(c.pred)))
	}
	return si, pi
}

// find returns the way of set si that holds key, prefetched or not, or −1.
// It compares the way predictor byte pi names first, and scans the set and
// corrects the byte only when that way holds some other line.
func (c *Cache) find(si, pi int, key uint64) int {
	base, n := si*c.cfg.Assoc, int(c.count[si])
	if w := int(c.pred[pi]); w < n && c.lines[base+w]^key <= prefetchedBit {
		return w
	}
	for w, x := range c.lines[base : base+n] {
		if x^key <= prefetchedBit {
			c.pred[pi] = uint8(w)
			return w
		}
	}
	return -1
}

// fill installs line word x in set si: in the next free way, else in the
// policy's victim. pi is the line's predictor byte.
func (c *Cache) fill(si, pi int, x uint64) {
	assoc := c.cfg.Assoc
	base := si * assoc
	w := int(c.count[si])
	if w < assoc {
		c.count[si]++
	} else {
		switch c.cfg.Policy {
		case LRU:
			w = lruVictim(c.stamps[base : base+assoc])
		case Random:
			w = c.rng.Intn(assoc)
		case PLRU:
			w = c.plruVictim(si)
		}
		c.occupancy[wordOwner(c.lines[base+w])]--
	}
	c.occupancy[wordOwner(x)]++
	c.lines[base+w] = x
	c.pred[pi] = uint8(w)
	switch c.cfg.Policy {
	case LRU:
		if x&prefetchedBit != 0 {
			c.stamps[base+w] = c.low | uint64(w)
			c.low -= stampStep
		} else {
			c.stamps[base+w] = c.clock | uint64(w)
			c.clock += stampStep
		}
	case PLRU:
		c.plruTouch(si, w)
	}
}

// lruVictim returns the way of a full set with the smallest stamp: its
// least recently used line. A stamp carries its way in its low byte, so the
// scan keeps only the minimum. Which way is oldest is as good as random to
// a branch predictor, so the scan must compile to conditional moves; it is
// kept out of line because inlined into its caller it compiles to branches.
//
//go:noinline
func lruVictim(stamps []uint64) int {
	oldest := stamps[0]
	for _, s := range stamps {
		oldest = min(oldest, s)
	}
	return int(uint8(oldest))
}

// plruTouch flips the tree bits on the path to way w of set si so the path
// points away from it.
func (c *Cache) plruTouch(si, w int) {
	bits := c.plruBits[si]
	node, lo, hi := 0, 0, c.cfg.Assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			bits |= 1 << uint(node) // point right (away from w)
			node, hi = 2*node+1, mid
		} else {
			bits &^= 1 << uint(node) // point left (away from w)
			node, lo = 2*node+2, mid
		}
	}
	c.plruBits[si] = bits
}

// plruVictim walks set si's tree bits toward the pseudo-LRU way.
func (c *Cache) plruVictim(si int) int {
	bits := c.plruBits[si]
	node, lo, hi := 0, 0, c.cfg.Assoc
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits&(1<<uint(node)) != 0 { // bit set → go right
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
	return lo
}

// Stats returns the accumulated statistics for owner.
func (c *Cache) Stats(owner int) OwnerStats {
	c.checkOwner(owner)
	return c.stats[owner]
}

// ResetStats clears access statistics (occupancy is preserved: it reflects
// cache contents, not history). Used to discard warm-up transients.
func (c *Cache) ResetStats() {
	for i := range c.stats {
		c.stats[i] = OwnerStats{}
	}
}

// Occupancy returns the number of lines owner currently holds.
func (c *Cache) Occupancy(owner int) int {
	c.checkOwner(owner)
	return c.occupancy[owner]
}

// AvgWays returns the average number of ways per set owner currently holds
// — the instantaneous effective cache size S_i of the paper.
func (c *Cache) AvgWays(owner int) float64 {
	return float64(c.Occupancy(owner)) / float64(c.cfg.NumSets)
}

func (c *Cache) checkOwner(owner int) {
	if owner < 0 || owner >= MaxOwners {
		panic(fmt.Sprintf("cache: owner %d out of range", owner))
	}
}
