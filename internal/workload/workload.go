// Package workload defines the synthetic processes that stand in for the
// paper's SPEC CPU2000 benchmarks, the configurable cache stressmark of
// Section 3.4, and the 6-phase power-model micro-benchmark of Section 4.1.
//
// Each benchmark is a Spec: a per-set reuse-distance distribution (the
// ground truth the model should recover by profiling), an optional
// sequential streaming component, an L2 access intensity, an instruction
// mix (L1 references, branches, FP operations per instruction), and a base
// SPI. The ten specs are tuned to span the same qualitative range as the
// paper's suite: CPU-bound (gzip) through memory-bound (mcf, art), with
// equake as the streaming, prefetch-friendly outlier.
//
// Time scale: the simulated machines run at ~1 MIPS (BaseSPI ≈ 1 µs) so
// that tens of simulated seconds stay tractable; all model-relevant ratios
// (miss penalty vs instruction time, refill vs timeslice) are preserved.
// See DESIGN.md §2.
package workload

import (
	"fmt"
	"sync"

	"mpmc/internal/hist"
	"mpmc/internal/trace"
)

// Spec describes one synthetic process.
type Spec struct {
	Name string

	// Reuse is the per-set reuse-distance distribution of the structured
	// (non-streaming) part of the access stream.
	Reuse *hist.Histogram
	// SeqFrac is the fraction of L2 accesses that stream sequentially
	// through SeqFootprint lines (reuse distance effectively infinite).
	SeqFrac float64
	// SeqFootprint is the wrap-around footprint of the streaming part.
	SeqFootprint uint64
	// FootprintCap bounds the tracked per-set stack depth of the reuse
	// generator; it must be ≥ Reuse.MaxDistance().
	FootprintCap int

	// L2RPI is the number of L2 references per instruction: the paper's
	// API (accesses per instruction) for the last-level cache.
	L2RPI float64
	// L1RPI, BRPI, FPPI are instruction-related event rates: L1 data
	// references, branches, and FP operations per instruction. They are
	// process properties unaffected by contention (Section 5).
	L1RPI float64
	BRPI  float64
	FPPI  float64

	// BaseSPI is seconds per instruction with zero L2 misses — the
	// paper's β in Eq. 3 (the α slope is MemLatency·L2RPI, supplied by
	// the machine).
	BaseSPI float64

	// Cyclic selects the strict per-set rotation generator instead of the
	// stochastic reuse generator. Only the stressmark uses it: rotation
	// claims contested ways as fast as possible.
	Cyclic bool

	// Phases, when non-empty, makes the process alternate between
	// distinct reuse behaviours — a deliberate violation of the paper's
	// single-phase assumption, used by the assumption-violation study.
	// Reuse must then hold the access-weighted mixture distribution (the
	// best single-phase approximation a profiler would recover).
	Phases []PhaseSpec

	// Members is the number of member threads this spec stands for when it
	// is a thread-group bundle (internal/threads): the bundle's Reuse and
	// event rates already describe the combined stream of Members
	// co-located threads, and per-group equilibrium terms are weighted by
	// it. Zero or one means an ordinary single-thread process.
	Members int
}

// PhaseSpec is one phase of a multi-phase process.
type PhaseSpec struct {
	Reuse    *hist.Histogram
	Accesses uint64 // accesses before switching to the next phase
}

// Validate reports whether the spec is internally consistent.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: unnamed spec")
	case s.Reuse == nil:
		return fmt.Errorf("workload %s: nil reuse histogram", s.Name)
	case s.SeqFrac < 0 || s.SeqFrac > 1:
		return fmt.Errorf("workload %s: SeqFrac %v outside [0,1]", s.Name, s.SeqFrac)
	case s.SeqFrac > 0 && s.SeqFootprint == 0:
		return fmt.Errorf("workload %s: streaming component without footprint", s.Name)
	case s.FootprintCap < s.Reuse.MaxDistance():
		return fmt.Errorf("workload %s: footprint cap %d below max distance %d",
			s.Name, s.FootprintCap, s.Reuse.MaxDistance())
	case s.L2RPI <= 0 || s.L2RPI > 1:
		return fmt.Errorf("workload %s: L2RPI %v outside (0,1]", s.Name, s.L2RPI)
	case s.L1RPI < 0 || s.BRPI < 0 || s.FPPI < 0:
		return fmt.Errorf("workload %s: negative instruction-mix rate", s.Name)
	case s.BaseSPI <= 0:
		return fmt.Errorf("workload %s: non-positive BaseSPI", s.Name)
	case s.Members < 0:
		return fmt.Errorf("workload %s: negative Members", s.Name)
	}
	return nil
}

// NewGenerator builds the process's L2 reference generator over a cache
// with numSets sets. Seed isolates the process's random stream.
func (s *Spec) NewGenerator(numSets int, seed uint64) trace.Generator {
	if s.Cyclic {
		return trace.NewCyclicGen(numSets, s.Reuse.MaxDistance(), seed)
	}
	if len(s.Phases) > 0 {
		phases := make([]trace.Phase, len(s.Phases))
		for i, p := range s.Phases {
			phases[i] = trace.Phase{
				Gen:      trace.NewReuseGen(p.Reuse, numSets, s.FootprintCap, seed+uint64(i)*7),
				Accesses: p.Accesses,
			}
		}
		return trace.NewPhasedGen(phases)
	}
	return trace.NewReuseGenOpts(s.Reuse, numSets, s.FootprintCap, seed, trace.ReuseOpts{
		SeqFrac:      s.SeqFrac,
		SeqFootprint: s.SeqFootprint,
	})
}

// EffectiveMPA returns the analytic ground-truth miss probability at an
// effective cache size of s ways, accounting for the streaming component
// (which always misses: its reuse distance is the streaming footprint).
func (sp *Spec) EffectiveMPA(s float64) float64 {
	return float64((1-sp.SeqFrac)*sp.Reuse.MPA(s)) + sp.SeqFrac
}

// TrueSPI returns the ground-truth expected seconds per instruction at
// steady miss rate mpa on a machine with the given memory latency and
// miss-overlap factor. Consecutive misses overlap by mlpOverlap (the
// simulator charges a miss only (1−mlpOverlap)·memLatency when the
// previous access also missed); with independent accesses the previous
// access misses with probability mpa, so
//
//	SPI(mpa) = BaseSPI + memLatency·L2RPI·mpa·(1 − mlpOverlap·mpa).
//
// The mild concavity is deliberate: it gives the linear Eq. 3 the same
// kind of model-form error it has on hardware.
func (sp *Spec) TrueSPI(memLatency, mlpOverlap, mpa float64) float64 {
	return sp.BaseSPI + float64(memLatency*sp.L2RPI*mpa*(1-float64(mlpOverlap*mpa)))
}

// geom returns n geometrically decaying weights starting at first.
func geom(first, ratio float64, n int) []float64 {
	w := make([]float64, n)
	v := first
	for i := range w {
		w[i] = v
		v *= ratio
	}
	return w
}

// flat returns n equal weights of value v.
func flat(v float64, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = v
	}
	return w
}

// concat concatenates weight slices.
func concat(parts ...[]float64) []float64 {
	var out []float64
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Suite returns the ten SPEC-CPU2000-like specs. The first eight are the
// paper's model-construction set (gzip, vpr, mcf, bzip2, twolf, art,
// equake, ammp); swim and applu extend it to the ten-benchmark set used
// for the second-machine validation and the prefetching study.
func Suite() []*Spec {
	specs := []*Spec{
		{
			// Tight integer loops, tiny working set: CPU bound.
			Name:         "gzip",
			Reuse:        hist.MustNew(geom(0.42, 0.55, 6), 0.03),
			FootprintCap: 48,
			L2RPI:        0.004, L1RPI: 0.42, BRPI: 0.22, FPPI: 0.002,
			BaseSPI: 1.0e-6,
		},
		{
			// Place-and-route: medium working set, gradual MPA curve.
			Name:         "vpr",
			Reuse:        hist.MustNew(geom(0.17, 0.87, 12), 0.06),
			FootprintCap: 48,
			L2RPI:        0.016, L1RPI: 0.46, BRPI: 0.18, FPPI: 0.03,
			BaseSPI: 1.1e-6,
		},
		{
			// Sparse network simplex: huge working set, memory bound.
			Name:         "mcf",
			Reuse:        hist.MustNew(concat(flat(0.02, 8), flat(0.03, 12), flat(0.02, 4)), 0.40),
			FootprintCap: 48,
			L2RPI:        0.060, L1RPI: 0.38, BRPI: 0.24, FPPI: 0.001,
			BaseSPI: 0.9e-6,
		},
		{
			// Block-sorting compression: bimodal reuse.
			Name: "bzip2",
			Reuse: hist.MustNew(concat(
				[]float64{0.30, 0.20, 0.05, 0.03, 0.02, 0.02},
				[]float64{0.03, 0.05, 0.08, 0.07, 0.05, 0.03}), 0.07),
			FootprintCap: 48,
			L2RPI:        0.012, L1RPI: 0.44, BRPI: 0.16, FPPI: 0.002,
			BaseSPI: 1.0e-6,
		},
		{
			// Standard-cell placement: cache-size sensitive.
			Name:         "twolf",
			Reuse:        hist.MustNew(geom(0.15, 0.90, 12), 0.05),
			FootprintCap: 48,
			L2RPI:        0.022, L1RPI: 0.48, BRPI: 0.20, FPPI: 0.02,
			BaseSPI: 1.2e-6,
		},
		{
			// Neural-network image recognition: large flat footprint.
			Name:         "art",
			Reuse:        hist.MustNew(flat(1.0/30, 24), 0.20),
			FootprintCap: 48,
			L2RPI:        0.050, L1RPI: 0.52, BRPI: 0.10, FPPI: 0.34,
			BaseSPI: 1.0e-6,
		},
		{
			// Seismic wave propagation: dominated by streaming sweeps —
			// the prefetch-friendly workload of the Section 3.1 study.
			Name:         "equake",
			Reuse:        hist.MustNew([]float64{0.50, 0.28, 0.12, 0.05}, 0.05),
			SeqFrac:      0.70,
			SeqFootprint: 1 << 22,
			FootprintCap: 48,
			L2RPI:        0.035, L1RPI: 0.50, BRPI: 0.08, FPPI: 0.30,
			BaseSPI: 1.0e-6,
		},
		{
			// Molecular dynamics: moderate reuse, FP heavy.
			Name:         "ammp",
			Reuse:        hist.MustNew(geom(0.13, 0.88, 16), 0.10),
			FootprintCap: 48,
			L2RPI:        0.028, L1RPI: 0.47, BRPI: 0.09, FPPI: 0.28,
			BaseSPI: 1.1e-6,
		},
		{
			// Shallow water modeling: part streaming, part blocked reuse.
			Name:         "swim",
			Reuse:        hist.MustNew(flat(0.11, 8), 0.12),
			SeqFrac:      0.35,
			SeqFootprint: 1 << 21,
			FootprintCap: 48,
			L2RPI:        0.030, L1RPI: 0.49, BRPI: 0.06, FPPI: 0.38,
			BaseSPI: 1.0e-6,
		},
		{
			// Parabolic PDE solver: moderate reuse, FP heavy.
			Name:         "applu",
			Reuse:        hist.MustNew(geom(0.14, 0.85, 12), 0.08),
			FootprintCap: 48,
			L2RPI:        0.024, L1RPI: 0.45, BRPI: 0.07, FPPI: 0.40,
			BaseSPI: 1.0e-6,
		},
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			panic(err)
		}
	}
	return specs
}

// ModelSet returns the first eight benchmarks — the set used for model
// construction and for Table 1 / Tables 2–4.
func ModelSet() []*Spec { return Suite()[:8] }

// shared is the one process-wide suite ByName answers from, built on
// first use.
var shared = sync.OnceValue(Suite)

// ByName returns the named spec from the suite, or nil. Every call hands
// out the same *Spec for a name, so a benchmark keeps one identity for the
// life of the process; the spec is shared and must be treated as
// read-only (Suite returns fresh copies for callers that edit one).
func ByName(name string) *Spec {
	for _, s := range shared() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// maxStressWays is the widest stressmark the shared table keeps: a cache
// has at most 255 ways, so a profiling sweep never asks for more.
const maxStressWays = 255

// stressmarks holds the stressmark for each ways count up to
// maxStressWays, built on first use and shared from then on.
var stressmarks [maxStressWays]struct {
	once sync.Once
	spec *Spec
}

// Stressmark returns the Section 3.4 profiling stressmark configured to
// occupy ways ways of each set. Its cyclic pattern gives every access a
// reuse distance of exactly ways, and its access rate is made much higher
// than any benchmark's so it wins the contention race and pins its ways.
//
// Like ByName, every call for the same ways hands out the same *Spec (up
// to 255 ways; a wider one is built afresh), so a profiling sweep builds
// each of its stressmarks once per process. The spec is shared and must be
// treated as read-only; its histogram computes everything at construction
// and is only read after.
func Stressmark(ways int) *Spec {
	if ways <= 0 {
		panic("workload: stressmark needs at least one way")
	}
	if ways > maxStressWays {
		return newStressmark(ways)
	}
	e := &stressmarks[ways-1]
	e.once.Do(func() { e.spec = newStressmark(ways) })
	return e.spec
}

// newStressmark builds Stressmark(ways).
func newStressmark(ways int) *Spec {
	// A degenerate histogram: all mass at distance = ways.
	w := make([]float64, ways)
	w[ways-1] = 1
	s := &Spec{
		Name:         fmt.Sprintf("stressmark-%d", ways),
		Reuse:        hist.MustNew(w, 0),
		FootprintCap: ways,
		// One L2 access per ~1.1 instructions: when the stressmark holds
		// its ways it accesses the cache an order of magnitude faster
		// than any benchmark, so it wins the contention race; when it is
		// missing, the memory latency throttles it to benchmark speed.
		L2RPI: 0.9, L1RPI: 1.0, BRPI: 0.05, FPPI: 0,
		BaseSPI: 1.2e-6,
		Cyclic:  true,
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Microbench returns the event-rate schedule of the Section 4.1 power
// micro-benchmark: an idle phase followed by five phases, each explicitly
// exercising one monitored component at eight decreasing access
// frequencies (the paper steps the frequency down every 10 s within an
// 80 s phase). maxRates gives the peak rate for each component in Eq. 9
// order; the small baseline keeps the other components realistic (a core
// cannot, e.g., retire branches without touching the L1).
func Microbench(maxRates [5]float64) [][5]float64 {
	const steps = 8
	var out [][5]float64
	out = append(out, [5]float64{}) // idle phase
	for comp := 0; comp < 5; comp++ {
		for step := 0; step < steps; step++ {
			frac := float64(steps-step) / steps
			var r [5]float64
			for j := range r {
				r[j] = 0.02 * maxRates[j] // background activity
			}
			r[comp] = frac * maxRates[comp]
			// L2 misses cannot exceed L2 references; keep the stream
			// physical when stressing the miss counter.
			if r[2] > r[1] {
				r[1] = r[2] * 1.1
			}
			out = append(out, r)
		}
	}
	return out
}
