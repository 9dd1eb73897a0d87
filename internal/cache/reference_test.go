package cache

import (
	"fmt"
	"testing"

	"mpmc/internal/xrand"
)

// refCache is the cache as plainly as it can be written: positional ways
// with a valid flag, a lookup that scans every way, and a separate per-set
// list of way indices in recency order under LRU. It is the oracle the flat
// Cache, with its stamps and its way predictor, is checked against, access
// by access.
type refCache struct {
	cfg       Config
	sets      []refSet
	rng       *xrand.Rand
	stats     [MaxOwners]OwnerStats
	occupancy [MaxOwners]int
}

type refWay struct {
	valid      bool
	owner      uint8
	id         uint64
	prefetched bool
}

type refSet struct {
	ways     []refWay
	recency  []uint8 // way indices, MRU first; LRU only
	plruBits uint32  // PLRU only
}

func newRef(cfg Config) *refCache {
	c := &refCache{cfg: cfg, sets: make([]refSet, cfg.NumSets), rng: xrand.New(cfg.Seed ^ 0xcafef00d)}
	for i := range c.sets {
		c.sets[i].ways = make([]refWay, cfg.Assoc)
		c.sets[i].recency = make([]uint8, 0, cfg.Assoc)
	}
	return c
}

func (c *refCache) Access(owner int, lineID uint64) bool {
	st := &c.stats[owner]
	st.Accesses++
	s := &c.sets[lineID%uint64(c.cfg.NumSets)]
	if w := c.find(s, owner, lineID); w >= 0 {
		if s.ways[w].prefetched {
			s.ways[w].prefetched = false
			st.PrefetchHit++
		}
		c.promote(s, w)
		return true
	}
	c.install(s, owner, lineID, false)
	st.Misses++
	if c.cfg.Prefetch {
		next := lineID + 1
		s := &c.sets[next%uint64(c.cfg.NumSets)]
		if c.find(s, owner, next) < 0 {
			c.install(s, owner, next, true)
			st.PrefetchFill++
		}
	}
	return false
}

func (c *refCache) find(s *refSet, owner int, lineID uint64) int {
	for i := range s.ways {
		w := &s.ways[i]
		if w.valid && w.id == lineID && w.owner == uint8(owner) {
			return i
		}
	}
	return -1
}

func (c *refCache) promote(s *refSet, w int) {
	switch c.cfg.Policy {
	case LRU:
		for i, x := range s.recency {
			if x == uint8(w) {
				copy(s.recency[1:i+1], s.recency[:i])
				s.recency[0] = uint8(w)
				return
			}
		}
		panic("refCache: recency list corrupt")
	case PLRU:
		c.plruTouch(s, w)
	}
}

func (c *refCache) install(s *refSet, owner int, lineID uint64, prefetched bool) {
	victim := -1
	for i := range s.ways {
		if !s.ways[i].valid {
			victim = i
			break
		}
	}
	wasValid := victim < 0
	if wasValid {
		switch c.cfg.Policy {
		case LRU:
			victim = int(s.recency[len(s.recency)-1])
		case Random:
			victim = c.rng.Intn(len(s.ways))
		case PLRU:
			victim = c.plruVictim(s)
		}
		c.occupancy[s.ways[victim].owner]--
	}
	s.ways[victim] = refWay{valid: true, owner: uint8(owner), id: lineID, prefetched: prefetched}
	c.occupancy[owner]++
	switch c.cfg.Policy {
	case LRU:
		if wasValid {
			for i, x := range s.recency {
				if x == uint8(victim) {
					s.recency = append(s.recency[:i], s.recency[i+1:]...)
					break
				}
			}
		}
		if prefetched {
			s.recency = append(s.recency, uint8(victim))
		} else {
			s.recency = append(s.recency, 0)
			copy(s.recency[1:], s.recency)
			s.recency[0] = uint8(victim)
		}
	case PLRU:
		c.plruTouch(s, victim)
	}
}

func (c *refCache) plruTouch(s *refSet, w int) {
	node, lo, hi := 0, 0, len(s.ways)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if w < mid {
			s.plruBits |= 1 << uint(node)
			node, hi = 2*node+1, mid
		} else {
			s.plruBits &^= 1 << uint(node)
			node, lo = 2*node+2, mid
		}
	}
}

func (c *refCache) plruVictim(s *refSet) int {
	node, lo, hi := 0, 0, len(s.ways)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.plruBits&(1<<uint(node)) != 0 {
			node, lo = 2*node+2, mid
		} else {
			node, hi = 2*node+1, mid
		}
	}
	return lo
}

// demand is an access the way the simulator makes one: PredictedHit, and
// Access when it does not answer.
func demand(c *Cache, owner int, lineID uint64) bool {
	return c.PredictedHit(owner, lineID) || c.Access(owner, lineID)
}

// TestMatchesReference drives the flat Cache and the positional reference
// with the same random (owner, lineID) streams and requires the same hit
// sequence, statistics and occupancy after every access: all policies,
// prefetch on and off, 1–8 owners, and geometries that include one way,
// one set and non-powers of two. Odd seeds access through demand.
func TestMatchesReference(t *testing.T) {
	geoms := [][2]int{{1, 1}, {1, 4}, {7, 1}, {4, 2}, {3, 12}, {16, 8}, {6, 16}, {2, 32}}
	r := xrand.New(2024)
	for _, pol := range []Policy{LRU, Random, PLRU} {
		for _, prefetch := range []bool{false, true} {
			for seed := uint64(0); seed < 24; seed++ {
				g := geoms[r.Intn(len(geoms))]
				cfg := Config{NumSets: g[0], Assoc: g[1], Policy: pol, Prefetch: prefetch, Seed: seed}
				owners := 1 + r.Intn(8)
				// Footprints from "fits" to "thrashes", with runs of
				// consecutive IDs so the prefetcher has something to hit.
				span := 1 + r.Intn(3*g[0]*g[1]*owners)
				name := fmt.Sprintf("%v/prefetch=%v/%dx%d/owners=%d/seed=%d", pol, prefetch, g[0], g[1], owners, seed)
				c, ref := New(cfg), newRef(cfg)
				access := (*Cache).Access
				if seed%2 == 1 {
					access = demand
				}
				var id uint64
				for i := 0; i < 4000; i++ {
					o := r.Intn(owners)
					if r.Intn(4) == 0 {
						id++
					} else {
						id = uint64(r.Intn(span))
					}
					if got, want := access(c, o, id), ref.Access(o, id); got != want {
						t.Fatalf("%s: access %d (owner %d, line %d): hit %v, reference %v", name, i, o, id, got, want)
					}
					checkAgainstRef(t, c, ref, owners, name, i)
				}
			}
		}
	}
}

// checkAgainstRef fails t unless c and ref report the same statistics,
// occupancy and average ways for owners 0..owners−1 after access i of the
// stream called name.
func checkAgainstRef(t *testing.T, c *Cache, ref *refCache, owners int, name string, i int) {
	t.Helper()
	for o := 0; o < owners; o++ {
		if c.Stats(o) != ref.stats[o] {
			t.Fatalf("%s: access %d: owner %d stats %+v, reference %+v", name, i, o, c.Stats(o), ref.stats[o])
		}
		if c.Occupancy(o) != ref.occupancy[o] {
			t.Fatalf("%s: access %d: owner %d occupancy %d, reference %d", name, i, o, c.Occupancy(o), ref.occupancy[o])
		}
		if want := float64(ref.occupancy[o]) / float64(ref.cfg.NumSets); c.AvgWays(o) != want {
			t.Fatalf("%s: access %d: owner %d AvgWays %v, reference %v", name, i, o, c.AvgWays(o), want)
		}
	}
}

// FuzzAccessMatchesReference checks the Cache against the reference after
// every access of a fuzzed stream: hit or miss, OwnerStats, Occupancy and
// AvgWays. mode picks the policy (all three), the prefetcher (on or off),
// the geometry: 48 sets × 12 ways, whose set and predictor indices are
// a modulo, or 64 × 16, where they are masks; and whether to access through
// Access or demand. Each access takes two bytes:
// the first gives the owner (of four) and k < 8, the second j and s < 2,
// for line k·Sets·Ways + j·Sets + s. Lines with the same j and s but
// another k or owner share a predictor byte, and up to 128 lines per owner
// compete for each of two sets, so predictions go stale through evictions
// and refills by other owners and other IDs.
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 1, 0, 0, 2, 4, 4})
	f.Add(uint8(5), []byte{0x21, 0x31, 0x42, 0x1f, 0xe3, 0x0c, 0x01, 0x01, 0x61, 0x30})
	f.Add(uint8(10), []byte{0x1c, 0x7e, 0x2d, 0x5a, 0x3b, 0x46, 0x8f, 0xd2, 0x90, 0x11, 0xa4, 0x0d})
	seed := make([]byte, 512)
	r := xrand.New(7)
	for i := range seed {
		seed[i] = byte(r.Uint64())
	}
	for mode := uint8(0); mode < 32; mode++ {
		f.Add(mode, seed)
	}
	f.Fuzz(func(t *testing.T, mode uint8, ops []byte) {
		geom := [2][2]int{{48, 12}, {64, 16}}[mode>>3&1]
		cfg := Config{NumSets: geom[0], Assoc: geom[1], Policy: Policy(mode % 3), Prefetch: mode&4 != 0, Seed: uint64(mode)}
		c, ref := New(cfg), newRef(cfg)
		access := (*Cache).Access
		if mode&16 != 0 {
			access = demand
		}
		name := fmt.Sprintf("%+v/demand=%v", cfg, mode&16 != 0)
		sets, ways := uint64(geom[0]), uint64(geom[1])
		for i := 0; i+1 < len(ops); i += 2 {
			o := int(ops[i] & 3)
			k := uint64(ops[i] >> 2 & 7)
			j, s := uint64(ops[i+1]>>1&15), uint64(ops[i+1]&1)
			id := k*sets*ways + j*sets + s
			if got, want := access(c, o, id), ref.Access(o, id); got != want {
				t.Fatalf("%s: access %d (owner %d, line %d): hit %v, reference %v", name, i/2, o, id, got, want)
			}
			checkAgainstRef(t, c, ref, 4, name, i/2)
		}
	})
}
