package cache

import (
	"sync"
	"testing"
)

// TestFreeListReuses: a released object is the next one handed out, a new
// one is built only when none is free, and a warm list allocates nothing.
func TestFreeListReuses(t *testing.T) {
	built := 0
	l := FreeList[[4]int]{New: func() *[4]int { built++; return new([4]int) }}
	a, b := l.Get(), l.Get()
	if built != 2 || a == b {
		t.Fatalf("two Gets built %d objects", built)
	}
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a || built != 2 {
		t.Fatalf("Get did not return the released objects last in, first out (%d built)", built)
	}
	l.Put(a)
	l.Put(b)
	if n := testing.AllocsPerRun(100, func() { x, y := l.Get(), l.Get(); l.Put(y); l.Put(x) }); n != 0 {
		t.Errorf("a warm list allocates %v objects per cycle", n)
	}
}

// TestFreeListConcurrent hands objects between goroutines: every object is
// out to one caller at a time. Run under -race.
func TestFreeListConcurrent(t *testing.T) {
	l := FreeList[int]{New: func() *int { return new(int) }}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				*x++
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	total := 0
	for len(l.free) > 0 {
		total += *l.Get()
	}
	if total != 8000 {
		t.Fatalf("%d increments survived, want 8000", total)
	}
}
