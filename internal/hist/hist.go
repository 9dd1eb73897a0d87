// Package hist implements reuse-distance histograms, the central data
// structure of the paper's performance model (Section 3).
//
// The reuse distance of a cache access is the number of distinct cache
// lines in the same set touched between two consecutive accesses to the
// same line. For a process holding an effective cache size of S ways in a
// set under LRU, an access hits exactly when its reuse distance is ≤ S, so
// the misses-per-access curve is the tail mass of the histogram (Eq. 2):
//
//	MPA(S) = Σ_{d>S} h(d)
//
// Distances are 1-based: distance 1 means "the line touched most recently".
// Mass at distances beyond the tracked maximum — including compulsory
// misses to never-seen lines — lives in an overflow (∞) bucket and always
// misses.
package hist

import (
	"fmt"
	"math"
)

// Histogram is a probability distribution over reuse distances 1..D plus an
// overflow bucket. Probabilities are normalized to sum to 1.
//
// A histogram is immutable after construction, so a single instance may be
// read from any number of goroutines concurrently — the equilibrium solver
// and the parallel profiling sweeps rely on this. The tail sums MPA needs
// are therefore precomputed eagerly in the constructors rather than cached
// lazily on first use.
type Histogram struct {
	p        []float64 // p[d-1] = P(distance == d), d = 1..len(p)
	overflow float64   // P(distance > len(p)), includes compulsory misses
	tail     []float64 // tail[s] = Σ_{d>s} h(d) for s = 0..len(p) (Eq. 2)
}

// New builds a histogram from per-distance weights (weights[d-1] is the
// weight of distance d) and an overflow weight. Weights are normalized;
// they must be non-negative, finite, and not all zero.
func New(weights []float64, overflow float64) (*Histogram, error) {
	total := overflow
	if overflow < 0 || math.IsNaN(overflow) || math.IsInf(overflow, 0) {
		return nil, fmt.Errorf("hist: invalid overflow weight %v", overflow)
	}
	for d, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("hist: invalid weight %v at distance %d", w, d+1)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("hist: zero total mass")
	}
	h := &Histogram{
		p:        make([]float64, len(weights)),
		overflow: overflow / total,
	}
	for i, w := range weights {
		h.p[i] = w / total
	}
	h.computeTail()
	return h, nil
}

// computeTail fills the Eq. 2 tail-mass table. Each entry is summed in
// ascending distance order — the exact accumulation order the former
// on-demand loop used — so MPA values are bit-identical to what a fresh
// summation would produce.
func (h *Histogram) computeTail() {
	h.tail = make([]float64, len(h.p)+1)
	for s := 0; s <= len(h.p); s++ {
		m := h.overflow
		for d := s + 1; d <= len(h.p); d++ {
			m += h.p[d-1]
		}
		h.tail[s] = m
	}
}

// MustNew is New but panics on error; for static workload definitions.
func MustNew(weights []float64, overflow float64) *Histogram {
	h, err := New(weights, overflow)
	if err != nil {
		panic(err)
	}
	return h
}

// MaxDistance returns the largest explicitly tracked distance D.
func (h *Histogram) MaxDistance() int { return len(h.p) }

// P returns P(distance == d) for d in 1..MaxDistance; 0 otherwise.
func (h *Histogram) P(d int) float64 {
	if d < 1 || d > len(h.p) {
		return 0
	}
	return h.p[d-1]
}

// Overflow returns the probability mass beyond MaxDistance (always-miss).
func (h *Histogram) Overflow() float64 { return h.overflow }

// MPA returns the miss probability for an effective cache size of s ways
// (Eq. 2). Integer s counts exact tail mass; fractional s interpolates
// linearly between the neighbouring integers so that the equilibrium
// system stays continuous for Newton–Raphson. MPA(0) = 1 (an empty cache
// misses every access); MPA is non-increasing and ≥ Overflow().
func (h *Histogram) MPA(s float64) float64 {
	if s <= 0 {
		return 1
	}
	d := len(h.p)
	if s >= float64(d) {
		return h.overflow
	}
	lo := int(math.Floor(s))
	frac := s - float64(lo)
	mLo := h.mpaInt(lo)
	if frac == 0 {
		return mLo
	}
	mHi := h.mpaInt(lo + 1)
	return mLo + float64(frac*(mHi-mLo))
}

// mpaInt returns Σ_{d>s} h(d) for integer s in 0..len(p).
func (h *Histogram) mpaInt(s int) float64 { return h.tail[s] }

// MPACurve returns MPA evaluated at s = 0..maxS (inclusive), a convenience
// for profiling comparisons and plotting.
func (h *Histogram) MPACurve(maxS int) []float64 {
	out := make([]float64, maxS+1)
	for s := 0; s <= maxS; s++ {
		out[s] = h.MPA(float64(s))
	}
	return out
}

// Mean returns the expected reuse distance counting overflow mass at
// penalty distance MaxDistance+1 (a lower bound on the true mean).
func (h *Histogram) Mean() float64 {
	m := h.overflow * float64(len(h.p)+1)
	for d, p := range h.p {
		m += float64(p * float64(d+1))
	}
	return m
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{p: make([]float64, len(h.p)), overflow: h.overflow}
	copy(c.p, h.p)
	c.computeTail()
	return c
}

// FromMPACurve reconstructs a histogram from measured MPA values, the
// inversion the automated profiling procedure uses (Eq. 8):
//
//	h(d) ≈ MPA(d−1) − MPA(d)
//
// mpa[s] must be the measured misses-per-access with an effective cache
// size of s ways, for s = 0..A (so len(mpa) == A+1); mpa[0] is 1 by
// definition. The residual tail MPA(A) becomes the overflow bucket.
// Non-monotonicity from measurement noise is clamped to zero mass.
func FromMPACurve(mpa []float64) (*Histogram, error) {
	if len(mpa) < 2 {
		return nil, fmt.Errorf("hist: MPA curve needs at least 2 points, got %d", len(mpa))
	}
	for i, v := range mpa {
		if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
			return nil, fmt.Errorf("hist: MPA[%d] = %v outside [0,1]", i, v)
		}
	}
	a := len(mpa) - 1
	weights := make([]float64, a)
	for d := 1; d <= a; d++ {
		w := mpa[d-1] - mpa[d]
		if w < 0 {
			w = 0 // measurement noise; MPA must be non-increasing
		}
		weights[d-1] = w
	}
	overflow := mpa[a]
	if overflow < 0 {
		overflow = 0
	}
	return New(weights, overflow)
}

// String renders the histogram compactly for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{D=%d overflow=%.4f mean=%.2f}", len(h.p), h.overflow, h.Mean())
}
