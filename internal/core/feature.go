// Package core implements the paper's contribution: the reuse-distance
// performance model (Section 3), the MVLR power model with its
// neural-network comparator (Section 4), and the combined model that
// estimates processor power for tentative process-to-core assignments
// before they run (Section 5).
package core

import (
	"fmt"
	"math"
	"sync"

	"mpmc/internal/hist"
)

// FeatureVector is the per-process characterization produced by the
// automated profiling of Section 3.4. It is everything the models may know
// about a process: the measured miss-rate curve (equivalently the
// reconstructed reuse-distance histogram), the SPI–MPA line of Eq. 3, the
// cache access intensity, and the power-profiling vector of Section 5.
type FeatureVector struct {
	Name string
	// Assoc is the associativity A of the cache the process was profiled
	// against; MPACurve has A+1 entries.
	Assoc int
	// MPACurve[s] is the measured misses-per-access with an effective
	// cache size of s ways; MPACurve[0] is 1 by definition.
	MPACurve []float64
	// Hist is the reuse-distance histogram reconstructed from MPACurve
	// via Eq. 8.
	Hist *hist.Histogram
	// Alpha and Beta are the Eq. 3 coefficients: SPI = Alpha·MPA + Beta.
	Alpha, Beta float64
	// API is the process's L2 accesses per instruction (the paper's API,
	// identical to L2RPI in the power decomposition).
	API float64

	// Power-profiling vector (Section 5): PAloneProcessor is the measured
	// total processor power while the process ran alone on an otherwise
	// idle machine; the instruction-related event rates are contention
	// invariant.
	PAloneProcessor float64
	L1RPI           float64
	BRPI            float64
	FPPI            float64

	// Members is the thread-group width carried over from the profiled
	// spec (workload.Spec.Members): when > 1 this feature describes the
	// combined stream of Members co-located member threads, and group
	// equilibrium terms weight its SPI contribution by Members. Zero or
	// one means an ordinary single-thread feature.
	Members int

	g *gCell // lazily built G(n) table
}

// gCell holds the lazily built growth table behind a pointer so that
// FeatureVector stays copyable (OnCore copies the struct, UnmarshalJSON
// overwrites it) while concurrent G/GMax/GInverse calls on a shared
// feature build the table exactly once instead of racing on a bare field.
type gCell struct {
	once sync.Once
	tab  *gTable
}

// gcellFallbackMu serializes cell installation for zero-value feature
// vectors built by hand rather than through a constructor.
var gcellFallbackMu sync.Mutex

func (f *FeatureVector) gcell() *gCell {
	if c := f.g; c != nil {
		return c
	}
	gcellFallbackMu.Lock()
	defer gcellFallbackMu.Unlock()
	if f.g == nil {
		f.g = &gCell{}
	}
	return f.g
}

// Validate checks internal consistency.
func (f *FeatureVector) Validate() error {
	switch {
	case f.Assoc <= 0:
		return fmt.Errorf("core: feature %q: non-positive associativity", f.Name)
	case len(f.MPACurve) != f.Assoc+1:
		return fmt.Errorf("core: feature %q: MPA curve has %d points, want %d", f.Name, len(f.MPACurve), f.Assoc+1)
	case f.Hist == nil:
		return fmt.Errorf("core: feature %q: missing histogram", f.Name)
	case f.API <= 0:
		return fmt.Errorf("core: feature %q: non-positive API", f.Name)
	case f.Beta <= 0:
		return fmt.Errorf("core: feature %q: non-positive Beta", f.Name)
	}
	for s, v := range f.MPACurve {
		if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
			return fmt.Errorf("core: feature %q: MPA[%d] = %v", f.Name, s, v)
		}
	}
	return nil
}

// NewFeatureVector assembles and validates a feature vector from a
// measured MPA curve (length assoc+1, index = effective ways) and the
// Eq. 3 regression results. The histogram is reconstructed via Eq. 8.
func NewFeatureVector(name string, mpaCurve []float64, alpha, beta, api float64) (*FeatureVector, error) {
	h, err := hist.FromMPACurve(mpaCurve)
	if err != nil {
		return nil, fmt.Errorf("core: feature %q: %w", name, err)
	}
	f := &FeatureVector{
		Name:     name,
		Assoc:    len(mpaCurve) - 1,
		MPACurve: append([]float64(nil), mpaCurve...),
		Hist:     h,
		Alpha:    alpha,
		Beta:     beta,
		API:      api,
		g:        &gCell{},
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// MPA returns the interpolated miss probability at an effective cache size
// of s ways (Eq. 2 over the reconstructed histogram).
func (f *FeatureVector) MPA(s float64) float64 { return f.Hist.MPA(s) }

// SPI returns the Eq. 3 throughput estimate at miss rate mpa.
func (f *FeatureVector) SPI(mpa float64) float64 { return float64(f.Alpha*mpa) + f.Beta }

// APS returns the process's cache accesses per second at miss rate mpa:
// API / SPI(mpa) — Eq. 6's right-hand side.
func (f *FeatureVector) APS(mpa float64) float64 { return f.API / f.SPI(mpa) }

// gTable caches the Eq. 4/5 growth curve G(n): the expected effective
// cache size after n consecutive accesses to one set, starting empty.
//
// Storage is dense for small n and geometrically thinned beyond, because
// G is smooth and concave there; lookups interpolate linearly.
type gTable struct {
	ns []float64 // access counts (strictly increasing, ns[0]=0)
	gs []float64 // G at each stored n
	// gMax is the asymptotic effective size (≤ assoc): the size at which
	// growth stopped.
	gMax float64
	// nIdx and gIdx seed G's and GInverse's searches of ns and gs.
	nIdx, gIdx bracketIndex
}

// bracketShift keeps the sign, the exponent and the top 6 mantissa bits of
// a float64: 64 buckets per binade, a few keys to a bucket where the table
// is densest.
const bracketShift = 52 - 6

// maxBracketBuckets bounds one index; a column spanning more buckets keeps
// the plain search.
const maxBracketBuckets = 1 << 14

// bracketIndex seeds the binary search over one non-decreasing column of a
// gTable whose first key is 0. Keys are bucketed by their leading float64
// bits, which for non-negative floats order like the floats themselves, so
// a key in a lower bucket than the query is below it and a key in a higher
// bucket above it. first[i] is the position of the first key in bucket
// lo+i or higher. A query in bucket b is therefore bracketed by the last
// key below bucket b and the first key above it: a lower bound the search
// predicate holds at and an upper bound it fails at, and on a monotone
// predicate any such bracket ends the search at the same pair of positions
// as the whole column does. The zero value seeds nothing.
type bracketIndex struct {
	lo    uint64
	first []int32
}

// newBracketIndex indexes keys, or returns the zero index when the column
// is not a non-decreasing run from +0 or spans too many buckets.
func newBracketIndex(keys []float64) bracketIndex {
	if len(keys) < 2 || keys[0] != 0 || math.Signbit(keys[0]) {
		return bracketIndex{}
	}
	for i := 1; i < len(keys); i++ {
		if !(keys[i] >= keys[i-1]) {
			return bracketIndex{}
		}
	}
	p := 1 // the first positive key
	for p < len(keys) && keys[p] == 0 {
		p++
	}
	if p == len(keys) || math.IsInf(keys[len(keys)-1], 1) {
		return bracketIndex{}
	}
	bucket := func(v float64) uint64 { return math.Float64bits(v) >> bracketShift }
	lo, hi := bucket(keys[p]), bucket(keys[len(keys)-1])
	if lo == 0 || hi-lo >= maxBracketBuckets {
		return bracketIndex{}
	}
	first := make([]int32, hi-lo+2)
	i := 0
	for b := range first {
		for i < len(keys) && bucket(keys[i]) < lo+uint64(b) {
			i++
		}
		first[b] = int32(i)
	}
	return bracketIndex{lo: lo, first: first}
}

// bracket returns the positions a search for a positive v starts from: lo
// holds a key below v, and hi a key above it or is last. A v beyond the
// indexed buckets (NaN included) gets the whole column.
func (x bracketIndex) bracket(v float64, last int) (lo, hi int) {
	if x.first == nil {
		return 0, last
	}
	b := math.Float64bits(v) >> bracketShift
	if b < x.lo {
		return 0, min(int(x.first[0]), last)
	}
	i := b - x.lo
	if i >= uint64(len(x.first)-1) {
		return 0, last
	}
	return int(x.first[i]) - 1, min(int(x.first[i+1]), last)
}

// maxGrowthSteps bounds the G(n) recursion; processes whose miss rate is
// astronomically small stop growing here, which only matters for cache
// sizes they would take hours of simulated time to reach.
const maxGrowthSteps = 2_000_000

// gtable builds (once, even under concurrent callers) and returns the
// growth table.
func (f *FeatureVector) gtable() *gTable {
	c := f.gcell()
	c.once.Do(func() { c.tab = f.buildGTable() })
	return c.tab
}

// buildGTable runs the Eq. 4/5 recursion and assembles the table.
func (f *FeatureVector) buildGTable() *gTable {
	a := f.Assoc
	// mpaAt[i] = miss probability at integer size i, i = 0..a.
	mpaAt := make([]float64, a+1)
	for i := 0; i <= a; i++ {
		mpaAt[i] = f.Hist.MPA(float64(i))
	}
	// P[i] = probability of effective size i (index 0 unused after step 1).
	p := make([]float64, a+1)
	q := make([]float64, a+1)
	p[1] = 1
	t := &gTable{ns: []float64{0, 1}, gs: []float64{0, 1}, gMax: 1}
	// Store every point up to denseLimit, then thin geometrically: G is
	// smooth and slowly varying at large n.
	const denseLimit = 1024
	nextStore := 0.0
	g := 1.0
	for n := 2; n <= maxGrowthSteps; n++ {
		for i := 1; i <= a; i++ {
			stay := p[i] * (1 - mpaAt[i])
			if i == a {
				// Absorbing: at full associativity misses evict the
				// process's own lines, so size cannot grow further.
				stay = p[i]
			}
			grow := 0.0
			if i > 1 {
				grow = p[i-1] * mpaAt[i-1]
			}
			q[i] = stay + grow
		}
		p, q = q, p
		g = 0
		for i := 1; i <= a; i++ {
			g += float64(float64(i) * p[i])
		}
		if n <= denseLimit || float64(n) >= nextStore {
			t.ns = append(t.ns, float64(n))
			t.gs = append(t.gs, g)
			nextStore = float64(n) * 1.02
		}
		if g > float64(a)-1e-9 {
			t.ns = append(t.ns, float64(n))
			t.gs = append(t.gs, g)
			break
		}
	}
	t.gMax = g
	t.nIdx, t.gIdx = newBracketIndex(t.ns), newBracketIndex(t.gs)
	return t
}

// G returns the expected effective cache size after n accesses (Eq. 5).
// Fractional n interpolates; n beyond the growth horizon returns the
// asymptotic size.
func (f *FeatureVector) G(n float64) float64 {
	if n <= 0 {
		return 0
	}
	t := f.gtable()
	last := len(t.ns) - 1
	if n >= t.ns[last] {
		return t.gs[last]
	}
	// Binary search for the bracketing stored points, from the index's
	// seed.
	lo, hi := t.nIdx.bracket(n, last)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.ns[mid] <= n {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (n - t.ns[lo]) / (t.ns[hi] - t.ns[lo])
	return t.gs[lo] + float64(frac*(t.gs[hi]-t.gs[lo]))
}

// GMax returns the asymptotic effective cache size the process reaches
// given unbounded time: the paper's G(∞), at most Assoc.
func (f *FeatureVector) GMax() float64 { return f.gtable().gMax }

// GInverse returns the access count n with G(n) = s. It is the paper's
// G⁻¹(S) in Eqs. 6–7. s above GMax returns +Inf.
func (f *FeatureVector) GInverse(s float64) float64 {
	if s <= 0 {
		return 0
	}
	t := f.gtable()
	if s > t.gMax {
		return math.Inf(1)
	}
	lo, hi := t.gIdx.bracket(s, len(t.gs)-1)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.gs[mid] < s {
			lo = mid
		} else {
			hi = mid
		}
	}
	if t.gs[hi] == t.gs[lo] {
		return t.ns[lo]
	}
	frac := (s - t.gs[lo]) / (t.gs[hi] - t.gs[lo])
	return t.ns[lo] + float64(frac*(t.ns[hi]-t.ns[lo]))
}
