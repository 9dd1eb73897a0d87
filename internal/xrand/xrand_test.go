package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collide %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream should not replay the parent stream.
	p := New(7)
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child stream mirrors parent at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.08*want {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

// TestBoundedMatchesIntn: a Bounded draw consumes the same words and
// returns the same ints as Intn, including n = 2^62 + 1, where a quarter
// of Intn's draws are rejected.
func TestBoundedMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 48, 64, 1000, 1<<62 + 1, 1<<63 - 1} {
		a, b, bounded := New(uint64(n)), New(uint64(n)), NewBounded(n)
		for i := 0; i < 2000; i++ {
			if x, y := a.Intn(n), bounded.Draw(b); x != y {
				t.Fatalf("n=%d, draw %d: Intn %d, Bounded %d", n, i, x, y)
			}
		}
		if a.state != b.state {
			t.Fatalf("n=%d: Intn and Bounded consumed different words", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewBounded(0) accepted")
		}
	}()
	NewBounded(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for n := 0; n < 50; n++ {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(19)
	s := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle altered multiset: %v", s)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	c := NewCategorical(weights)
	r := New(23)
	const draws = 400000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[c.Sample(r)]++
	}
	total := 10.0
	for i, w := range weights {
		got := counts[i] / draws
		want := w / total
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalSingle(t *testing.T) {
	c := NewCategorical([]float64{5})
	r := New(29)
	for i := 0; i < 100; i++ {
		if c.Sample(r) != 0 {
			t.Fatal("single-category sampler returned nonzero index")
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c := NewCategorical([]float64{0, 1, 0, 2})
	r := New(31)
	for i := 0; i < 50000; i++ {
		v := c.Sample(r)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight category %d", v)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{{}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", w)
				}
			}()
			NewCategorical(w)
		}()
	}
}

func TestCategoricalPropertyValidIndex(t *testing.T) {
	r := New(37)
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		positive := false
		for i, v := range raw {
			weights[i] = float64(v)
			if v > 0 {
				positive = true
			}
		}
		if !positive {
			return true
		}
		c := NewCategorical(weights)
		for i := 0; i < 32; i++ {
			idx := c.Sample(r)
			if idx < 0 || idx >= len(weights) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkCategoricalSample(b *testing.B) {
	w := make([]float64, 64)
	for i := range w {
		w[i] = float64(i + 1)
	}
	c := NewCategorical(w)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Sample(r)
	}
}
