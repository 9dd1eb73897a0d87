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
// Under LRU a set is stored in recency order, which makes a lookup one scan
// and one shift (see Cache).
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
// above bit 0.
const (
	prefetchedBit = 1
	ownerShift    = 1
	idShift       = 7
	ownerMask     = MaxOwners - 1
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
// first count[s] slots are exactly the valid ones.
//
// Random and PLRU treat a slot as a physical way: the victim draw and the
// tree bits name slots. LRU has no such state. Which way holds a line is
// unobservable under LRU: hits, evictions, statistics and occupancy depend
// only on the order in which the set's lines were last used. So an LRU set
// keeps its lines sorted MRU-first and is its own recency list: a hit moves
// the line to the front, the victim is the last line, a prefetch fill goes
// in last. It behaves access for access like positional ways with a
// separate recency list, which the tests keep as a reference.
type Cache struct {
	cfg       Config
	lines     []uint64 // line words (see lineWord)
	count     []uint8  // resident lines per set
	plruBits  []uint32 // per-set PLRU tree state, heap-indexed; PLRU only
	rng       *xrand.Rand
	stats     [MaxOwners]OwnerStats
	occupancy [MaxOwners]int // lines currently resident per owner
}

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
	c := &Cache{
		cfg:   cfg,
		lines: make([]uint64, cfg.NumSets*cfg.Assoc),
		count: make([]uint8, cfg.NumSets),
		rng:   xrand.New(cfg.Seed ^ 0xcafef00d),
	}
	if cfg.Policy == PLRU {
		c.plruBits = make([]uint32, cfg.NumSets)
	}
	return c
}

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.cfg.Assoc }

// Access performs a demand access by owner to lineID and reports whether it
// hit. A miss installs the line (evicting per policy) and, if prefetching
// is enabled, also fills lineID+1, unless lineID is MaxLineID. It panics on
// a line ID above MaxLineID.
func (c *Cache) Access(owner int, lineID uint64) bool {
	c.checkOwner(owner)
	if lineID > MaxLineID {
		panic(fmt.Sprintf("cache: line ID %#x above MaxLineID", lineID))
	}
	st := &c.stats[owner]
	st.Accesses++
	if c.touch(uint8(owner), lineID, false) {
		return true
	}
	st.Misses++
	if c.cfg.Prefetch && lineID < MaxLineID && !c.touch(uint8(owner), lineID+1, true) {
		st.PrefetchFill++
	}
	return false
}

// touch looks up (owner, lineID) and reports whether it is resident,
// installing it if not. A demand hit promotes the line; a prefetch probe
// leaves a resident line alone, and installs an absent one at the LRU end:
// a wrong prefetch is evicted first and barely pollutes the set.
func (c *Cache) touch(owner uint8, lineID uint64, prefetch bool) bool {
	assoc := c.cfg.Assoc
	si := int(lineID % uint64(c.cfg.NumSets))
	set := c.lines[si*assoc : (si+1)*assoc]
	n := int(c.count[si])
	key := lineWord(owner, lineID, false)
	for i := 0; i < n; i++ {
		if set[i]^key > prefetchedBit {
			continue
		}
		if prefetch {
			return true
		}
		if set[i]&prefetchedBit != 0 {
			set[i] = key
			c.stats[owner].PrefetchHit++
		}
		switch c.cfg.Policy {
		case LRU:
			copy(set[1:i+1], set[:i])
			set[0] = key
		case PLRU:
			c.plruTouch(si, i)
		}
		return true
	}
	w := n // the way to fill: the next free one, else the policy's victim
	if n < assoc {
		c.count[si]++
	} else {
		switch c.cfg.Policy {
		case LRU:
			w = n - 1
		case Random:
			w = c.rng.Intn(assoc)
		case PLRU:
			w = c.plruVictim(si)
		}
		c.occupancy[wordOwner(set[w])]--
	}
	c.occupancy[owner]++
	if c.cfg.Policy == LRU && !prefetch {
		copy(set[1:w+1], set[:w])
		w = 0
	}
	set[w] = lineWord(owner, lineID, prefetch)
	if c.cfg.Policy == PLRU {
		c.plruTouch(si, w)
	}
	return false
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
