package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the q-quantile (0..1) of an ascending slice, interpolating
// linearly between neighbours; NaN for an empty slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (pos-float64(lo))*(asc[hi]-asc[lo])
}

// median of an unsorted slice.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentile reports the q-quantile of an ascending slice only when at
// least ten samples lie beyond it (the choosing-metrics rule: a percentile
// with fewer samples past it is one slow request, not a distribution).
func percentile(asc []float64, q float64) (v float64, ok bool) {
	if len(asc) == 0 {
		return 0, false
	}
	beyond := len(asc) - 1 - int(math.Floor(q*float64(len(asc)-1)))
	if beyond < 10 {
		return 0, false
	}
	return quantile(asc, q), true
}

// quartiles are the exclusive-method quartiles Python's
// statistics.quantiles(values, n=4) returns, which the acceptance check
// uses; xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	at := func(k int) float64 {
		n := len(asc)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - 4*j)
		return (asc[j-1]*(4-d) + asc[j]*d) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// windowOps is how many operations make one window of an open-loop phase.
const windowOps = 200

// windowQuantile is the latency quantile of an open-loop phase: lats, in
// the order the operations were due, are cut into windows of windowOps, each
// window gives its q-quantile under the percentile rule, and the phase
// reports the median of the windows. A shorter last window is left out,
// unless it is the only one. One stall of a shared sandbox lands in one or
// two windows; in the pooled 90th percentile of the phase it moved the
// number by a third between identical runs.
func windowQuantile(lats []float64, q float64) (v float64, ok bool) {
	var per []float64
	for lo := 0; lo < len(lats); lo += windowOps {
		hi := lo + windowOps
		if hi > len(lats) {
			if lo > 0 {
				break
			}
			hi = len(lats)
		}
		w, ok := percentile(sorted(lats[lo:hi]), q)
		if !ok {
			return 0, false
		}
		per = append(per, w)
	}
	if len(per) == 0 {
		return 0, false
	}
	return median(per), true
}

// windowRate is the median, over the whole windows of the given width in
// seconds, of completions per second; done holds each completion's offset
// from the start of the phase. 0 when the phase is shorter than one window.
func windowRate(done []float64, width float64) float64 {
	end := 0.0
	for _, t := range done {
		end = math.Max(end, t)
	}
	counts := make([]float64, int(end/width))
	for _, t := range done {
		if i := int(t / width); i < len(counts) {
			counts[i] += 1 / width
		}
	}
	if len(counts) == 0 {
		return 0
	}
	return median(counts)
}
