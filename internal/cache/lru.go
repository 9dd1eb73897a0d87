// Bounded LRU key-value cache for derived model state.
//
// The hardware cache model above simulates LRU *sets*; this file reuses the
// same replacement intuition at the software layer: profiling a process
// costs A simulated co-runs (Section 3.4), so a long-running service keeps
// the resulting feature vectors resident and evicts the least recently
// requested one when the working set outgrows the configured capacity —
// the amortization argument PPT-Multicore and the reuse-distance-histogram
// literature make for reusing profiles across many predictions.

package cache

import "sync"

// LRUStats is a snapshot of an LRU's counters.
type LRUStats struct {
	Hits      uint64 // Get found the key
	Misses    uint64 // Get did not find the key
	Evictions uint64 // entries displaced by Put at capacity
	Len       int    // entries currently resident
	Cap       int    // configured capacity
}

// lruEntry is a node of the intrusive recency list, most recent at front.
type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

// LRUMap is a bounded least-recently-used map from string keys to values.
// All methods are safe for concurrent use.
type LRUMap[V any] struct {
	mu      sync.Mutex
	cap     int
	items   map[string]*lruEntry[V]
	head    *lruEntry[V] // most recently used
	tail    *lruEntry[V] // least recently used
	hits    uint64
	misses  uint64
	evicted uint64
}

// NewLRUMap builds an LRUMap holding at most capacity entries. It panics on a
// non-positive capacity (a service misconfiguration, not a runtime input).
func NewLRUMap[V any](capacity int) *LRUMap[V] {
	if capacity <= 0 {
		panic("cache: LRU capacity must be positive")
	}
	return &LRUMap[V]{cap: capacity, items: make(map[string]*lruEntry[V], capacity)}
}

// Get returns the value for key and whether it was present, promoting the
// entry to most recently used on a hit.
func (l *LRUMap[V]) Get(key string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.items[key]
	return l.lookedUp(e, ok)
}

// GetBytes is Get for a key held in a byte slice. The lookup converts the
// key in place, so a probe allocates nothing and the caller may reuse the
// slice at once; only an insert (Put) needs the key as a string.
func (l *LRUMap[V]) GetBytes(key []byte) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.items[string(key)]
	return l.lookedUp(e, ok)
}

// lookedUp counts a lookup and promotes a hit. Called with the lock held.
func (l *LRUMap[V]) lookedUp(e *lruEntry[V], ok bool) (V, bool) {
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.moveToFront(e)
	return e.val, true
}

// Put inserts or overwrites key, promoting it to most recently used and
// evicting the least recently used entry if the cache is at capacity.
func (l *LRUMap[V]) Put(key string, val V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.items[key]; ok {
		e.val = val
		l.moveToFront(e)
		return
	}
	if len(l.items) >= l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.items, victim.key)
		l.evicted++
	}
	e := &lruEntry[V]{key: key, val: val}
	l.items[key] = e
	l.pushFront(e)
}

// Delete removes key and reports whether it was present. Targeted
// invalidation for callers whose values can go stale (e.g. a memoized
// score whose machine failed); a miss is not an error.
func (l *LRUMap[V]) Delete(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.items[key]
	if !ok {
		return false
	}
	l.unlink(e)
	delete(l.items, key)
	return true
}

// Len returns the number of resident entries.
func (l *LRUMap[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Stats returns a consistent snapshot of the counters.
func (l *LRUMap[V]) Stats() LRUStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LRUStats{Hits: l.hits, Misses: l.misses, Evictions: l.evicted, Len: len(l.items), Cap: l.cap}
}

// Keys returns the resident keys from most to least recently used.
func (l *LRUMap[V]) Keys() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.items))
	for e := l.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// unlink removes e from the recency list. Called with the lock held.
func (l *LRUMap[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry. Called with the lock held.
func (l *LRUMap[V]) pushFront(e *lruEntry[V]) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *LRUMap[V]) moveToFront(e *lruEntry[V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}
