package core

import (
	"math"
	"testing"

	"mpmc/internal/machine"
)

// refG is G with the plain binary search over the whole table, the search
// the bracket index seeds: kept as the oracle the seeded search must match.
func refG(f *FeatureVector, n float64) float64 {
	if n <= 0 {
		return 0
	}
	t := f.gtable()
	last := len(t.ns) - 1
	if n >= t.ns[last] {
		return t.gs[last]
	}
	lo, hi := 0, last
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.ns[mid] <= n {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (n - t.ns[lo]) / (t.ns[hi] - t.ns[lo])
	return t.gs[lo] + frac*(t.gs[hi]-t.gs[lo])
}

// refGInverse is GInverse with the plain binary search.
func refGInverse(f *FeatureVector, s float64) float64 {
	if s <= 0 {
		return 0
	}
	t := f.gtable()
	if s > t.gMax {
		return math.Inf(1)
	}
	lo, hi := 0, len(t.ns)-1
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
	return t.ns[lo] + frac*(t.ns[hi]-t.ns[lo])
}

// probes returns the points a column is checked at: every stored key, the
// midpoint of every pair, one ulp either side of each, 0, the column's end
// and beyond it.
func probes(keys []float64, end float64) []float64 {
	out := []float64{0, math.SmallestNonzeroFloat64, end, math.Nextafter(end, 0), math.Nextafter(end, math.Inf(1)), end * 1.5, math.Inf(1), math.NaN()}
	for i, k := range keys {
		out = append(out, k, math.Nextafter(k, 0), math.Nextafter(k, math.Inf(1)))
		if i > 0 {
			mid := (keys[i-1] + k) / 2
			out = append(out, mid, math.Nextafter(mid, 0), math.Nextafter(mid, math.Inf(1)))
		}
	}
	return out
}

// TestBracketIndexMatchesSearch: G and GInverse seeded from the bracket
// index return the plain search's bits at every probe of every suite
// feature's table on every preset, and every such table is indexed.
func TestBracketIndexMatchesSearch(t *testing.T) {
	for _, m := range []*machine.Machine{
		machine.FourCoreServer(), machine.TwoCoreWorkstation(), machine.TwoCoreLaptop(), machine.FourCoreLittle(),
	} {
		for _, f := range suiteFeatures(m) {
			tab := f.gtable()
			if tab.nIdx.first == nil || tab.gIdx.first == nil {
				t.Fatalf("%s/%s: table not indexed", m.Name, f.Name)
			}
			for _, n := range probes(tab.ns, tab.ns[len(tab.ns)-1]) {
				if got, want := f.G(n), refG(f, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s: G(%v) = %v, plain search %v", m.Name, f.Name, n, got, want)
				}
			}
			for _, s := range probes(tab.gs, tab.gMax) {
				if got, want := f.GInverse(s), refGInverse(f, s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s: GInverse(%v) = %v, plain search %v", m.Name, f.Name, s, got, want)
				}
			}
		}
	}
}

// TestBracketIndexRefusesDisorder: a column the monotone argument does not
// cover gets no index, so its searches start from the whole column.
func TestBracketIndexRefusesDisorder(t *testing.T) {
	for _, keys := range [][]float64{
		{0, 2, 1},
		{1, 2, 3},
		{math.Copysign(0, -1), 1, 2},
		{0, 0, 0},
		{0, 1, math.NaN()},
		{0, 1, math.Inf(1)},
		{0, 1e-300, 1e300},
	} {
		if x := newBracketIndex(keys); x.first != nil {
			t.Errorf("%v: indexed", keys)
		}
	}
	x := newBracketIndex([]float64{0, 0, 1, 1, 2, 8})
	for v, want := range map[float64][2]int{
		0.5: {0, 2}, 1: {1, 4}, 1.5: {3, 4}, 2: {3, 5}, 5: {4, 5}, 8: {4, 5}, 9: {0, 5},
	} {
		if lo, hi := x.bracket(v, 5); lo != want[0] || hi != want[1] {
			t.Errorf("bracket(%v) = %d, %d, want %v", v, lo, hi, want)
		}
	}
}
