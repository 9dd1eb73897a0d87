// Reusable scratch objects.
//
// A hot path that reuses its working memory allocates nothing once warm,
// and tests pin that. sync.Pool cannot back such a pin: it empties at
// garbage collections and, under the race detector, drops objects at
// random, so the same calls allocate a different number of objects run to
// run. FreeList keeps what is released until it is asked for again.

package cache

import "sync"

// FreeList hands out reusable objects: Get pops the last one released, or
// builds one with New when none is; Put releases one. It holds as many
// objects as were ever out at once. Safe for concurrent use; set New before
// the first Get.
type FreeList[T any] struct {
	New func() *T

	mu   sync.Mutex
	free []*T
}

// Get returns a released object, or a new one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return l.New()
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return x
}

// Put releases x for a later Get. The caller must not use x afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
