// Package xrand provides a small, deterministic, seedable random number
// generator used throughout the simulator and the experiment harness.
//
// Reproducibility is a hard requirement for the experiment suite: every
// table and figure is regenerated from a fixed seed, so validation errors
// are stable across runs and machines. The standard library's math/rand
// global state is shared and order-dependent; instead each simulated
// process, oracle, and experiment owns its own *Rand.
//
// The core generator is SplitMix64 (Steele, Lea, Flood; JPDC 2014): a
// 64-bit counter-based generator with excellent statistical quality for
// simulation workloads, a one-word state, and trivially splittable streams.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator. The zero value is
// a valid generator seeded with 0; prefer New to make streams distinct.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators created with
// different seeds produce statistically independent streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new, independent generator from r. The derived stream is
// decorrelated from the parent by advancing the parent and re-dispersing
// its output, so handing one generator per simulated process out of a
// single experiment seed is safe.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Bounded draws uniform ints in [0, n) for a fixed n exactly as Intn(n)
// does: from the same Rand, Draw and Intn consume the same words and return
// the same ints. It computes Intn's rejection threshold once, so a draw is
// a multiply and a compare and inlines into its caller.
type Bounded struct {
	n, thresh uint64
}

// NewBounded prepares draws from [0, n). It panics if n <= 0.
func NewBounded(n int) Bounded {
	if n <= 0 {
		panic("xrand: NewBounded with non-positive n")
	}
	bound := uint64(n)
	return Bounded{n: bound, thresh: -bound % bound}
}

// Draw returns a uniform int in [0, n), consuming r's words as Intn(n).
func (b Bounded) Draw(r *Rand) int {
	for {
		// Intn accepts lo >= n || lo >= thresh, and thresh < n.
		hi, lo := bits.Mul64(r.Uint64(), b.n)
		if lo >= b.thresh {
			return int(hi)
		}
	}
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Box–Muller transform. Two uniforms are consumed per call; the spare
// deviate is not cached so the stream is stateless aside from the counter.
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Categorical samples from a discrete distribution in O(1) per draw using
// Walker's alias method. Construction is O(n).
type Categorical struct {
	prob  []float64 // acceptance probability per column
	alias []int     // alias index per column
}

// NewCategorical builds an alias table for the given non-negative weights.
// Weights need not be normalized. It panics if no weight is positive or if
// any weight is negative or non-finite.
func NewCategorical(weights []float64) *Categorical {
	n := len(weights)
	if n == 0 {
		panic("xrand: empty categorical distribution")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("xrand: invalid categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("xrand: categorical distribution has zero mass")
	}
	c := &Categorical{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities; columns with scaled mass < 1 are "small".
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		c.prob[s] = scaled[s]
		c.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers: both queues drain to probability 1.
	for _, i := range large {
		c.prob[i] = 1
		c.alias[i] = i
	}
	for _, i := range small {
		c.prob[i] = 1
		c.alias[i] = i
	}
	return c
}

// Len returns the number of categories.
func (c *Categorical) Len() int { return len(c.prob) }

// Sample draws one category index using r.
func (c *Categorical) Sample(r *Rand) int {
	i := r.Intn(len(c.prob))
	if r.Float64() < c.prob[i] {
		return i
	}
	return c.alias[i]
}
