package trace

import (
	"math"
	"testing"

	"mpmc/internal/cache"
	"mpmc/internal/hist"
)

// runSolo drives gen against a dedicated cache and returns steady-state MPA.
func runSolo(t *testing.T, gen Generator, numSets, assoc int, warm, measured int) float64 {
	t.Helper()
	c := cache.New(cache.Config{NumSets: numSets, Assoc: assoc, Policy: cache.LRU, Seed: 9})
	for i := 0; i < warm; i++ {
		c.Access(0, next(gen))
	}
	c.ResetStats()
	for i := 0; i < measured; i++ {
		c.Access(0, next(gen))
	}
	return c.Stats(0).MPA()
}

func TestReuseGenMatchesAnalyticMPA(t *testing.T) {
	// The foundation of the whole reproduction: a reuse-distance-driven
	// stream run through an S-way LRU cache must produce MPA equal to the
	// histogram's analytic tail mass at S (Eq. 2).
	h := hist.MustNew([]float64{0.30, 0.20, 0.15, 0.10, 0.05, 0.05, 0.03, 0.02}, 0.10)
	const numSets = 16
	for _, assoc := range []int{2, 4, 8} {
		gen := NewReuseGen(h, numSets, 32, 42)
		got := runSolo(t, gen, numSets, assoc, 50000, 300000)
		want := h.MPA(float64(assoc))
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("assoc %d: measured MPA %.4f, analytic %.4f", assoc, got, want)
		}
	}
}

func TestReuseGenDeterministic(t *testing.T) {
	h := hist.MustNew([]float64{0.5, 0.3}, 0.2)
	a := NewReuseGen(h, 4, 8, 7)
	b := NewReuseGen(h, 4, 8, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("generators diverged at access %d", i)
		}
	}
}

func TestReuseGenSetMapping(t *testing.T) {
	h := hist.MustNew([]float64{1}, 0.5)
	const numSets = 8
	gen := NewReuseGen(h, numSets, 4, 3)
	counts := make([]int, numSets)
	for i := 0; i < 80000; i++ {
		id := gen.Next()
		counts[id%numSets]++
	}
	for s, c := range counts {
		if math.Abs(float64(c)-10000) > 800 {
			t.Fatalf("set %d received %d accesses, want ~10000", s, c)
		}
	}
}

func TestReuseGenFootprintBounded(t *testing.T) {
	// With overflow mass the generator keeps allocating fresh lines, but
	// the per-set stack must stay within cap.
	h := hist.MustNew([]float64{0.3}, 0.7)
	gen := NewReuseGen(h, 2, 4, 11)
	for i := 0; i < 10000; i++ {
		gen.Next()
	}
	for s, depth := range gen.depth {
		if depth > 4 {
			t.Fatalf("set %d stack grew to %d > cap", s, depth)
		}
	}
}

func TestReuseGenPanics(t *testing.T) {
	h := hist.MustNew([]float64{1, 1, 1}, 0)
	for _, f := range []func(){
		func() { NewReuseGen(h, 0, 8, 1) },
		func() { NewReuseGen(h, 4, 2, 1) }, // cap below max distance
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStrideGenWrap(t *testing.T) {
	g := NewStrideGen(3)
	want := []uint64{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("access %d: got %d want %d", i, got, w)
		}
	}
}

func TestStrideGenAlwaysMissesWithoutPrefetch(t *testing.T) {
	// Footprint far beyond capacity: pure streaming misses everything.
	g := NewStrideGen(1 << 20)
	mpa := runSolo(t, g, 16, 4, 10000, 50000)
	if mpa < 0.999 {
		t.Fatalf("streaming MPA %v, want ~1", mpa)
	}
}

func TestReuseGenSeqFraction(t *testing.T) {
	// All reuse mass in the overflow bucket so every non-sequential access
	// allocates a fresh (offset) line, making the two streams countable.
	h := hist.MustNew(nil, 1)
	g := NewReuseGenOpts(h, 4, 4, 5, ReuseOpts{SeqFrac: 0.75, SeqFootprint: 1 << 30})
	seqCount := 0
	for i := 0; i < 100000; i++ {
		if g.Next() < freshBase {
			seqCount++
		}
	}
	if math.Abs(float64(seqCount)/100000-0.75) > 0.01 {
		t.Fatalf("sequential fraction %v, want 0.75", float64(seqCount)/100000)
	}
}

func TestReuseGenSeqEffectiveMPA(t *testing.T) {
	// The integrated sequential stream must yield exactly the mixture
	// distribution: MPA(S) = (1−q)·hist.MPA(S) + q.
	h := hist.MustNew([]float64{0.5, 0.3, 0.2}, 0)
	const q = 0.4
	g := NewReuseGenOpts(h, 8, 16, 17, ReuseOpts{SeqFrac: q, SeqFootprint: 1 << 22})
	const assoc = 2
	got := runSolo(t, g, 8, assoc, 40000, 200000)
	want := (1-q)*h.MPA(assoc) + q
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("mixed MPA %.4f want %.4f", got, want)
	}
}

func TestReuseGenSeqIsSequential(t *testing.T) {
	// The streaming component must emit consecutive line IDs so next-line
	// prefetchers can exploit it.
	h := hist.MustNew([]float64{1}, 0)
	g := NewReuseGenOpts(h, 4, 4, 5, ReuseOpts{SeqFrac: 1, SeqFootprint: 100})
	for i := uint64(0); i < 250; i++ {
		if got := g.Next(); got != i%100 {
			t.Fatalf("access %d: got %d", i, got)
		}
	}
}

func TestReuseGenOptsPanics(t *testing.T) {
	h := hist.MustNew([]float64{1}, 0)
	for _, opts := range []ReuseOpts{
		{SeqFrac: 1.5, SeqFootprint: 10},
		{SeqFrac: 0.5}, // no footprint
		{SeqFrac: 0.5, SeqFootprint: freshBase},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("opts %+v accepted", opts)
				}
			}()
			NewReuseGenOpts(h, 4, 4, 1, opts)
		}()
	}
}

func TestPhasedGenRotation(t *testing.T) {
	g := NewPhasedGen([]Phase{
		{Gen: NewStrideGen(1000), Accesses: 3},
		{Gen: NewStrideGen(1000), Accesses: 2},
	})
	// Phase 1 emits 0,1,2; phase 2 emits 0,1; then phase 1 resumes at 3.
	want := []uint64{0, 1, 2, 0, 1, 3, 4, 5, 2, 3}
	for i, w := range want {
		if got := next(g); got != w {
			t.Fatalf("access %d: got %d want %d", i, got, w)
		}
	}
}

func TestPhasedGenPanics(t *testing.T) {
	for _, phases := range [][]Phase{nil, {{Gen: NewStrideGen(1), Accesses: 0}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewPhasedGen(phases)
		}()
	}
}

func TestCyclicGenStackDistance(t *testing.T) {
	// The stressmark property: with exactly linesPerSet ways it always
	// hits after warm-up; with one fewer way it always misses.
	const numSets, lines = 8, 4
	gen := NewCyclicGen(numSets, lines, 13)
	mpa := runSolo(t, gen, numSets, lines, 20000, 50000)
	if mpa != 0 {
		t.Fatalf("stressmark with %d ways should always hit, MPA=%v", lines, mpa)
	}
	gen = NewCyclicGen(numSets, lines, 13)
	mpa = runSolo(t, gen, numSets, lines-1, 20000, 50000)
	if mpa < 0.999 {
		t.Fatalf("stressmark with %d ways should always miss, MPA=%v", lines-1, mpa)
	}
}

func TestCyclicGenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCyclicGen(0, 1, 1)
}

func BenchmarkReuseGenNext(b *testing.B) {
	h := hist.MustNew([]float64{0.3, 0.2, 0.15, 0.1, 0.05, 0.05, 0.03, 0.02}, 0.1)
	gen := NewReuseGen(h, 64, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Next()
	}
}
