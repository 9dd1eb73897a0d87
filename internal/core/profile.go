package core

import (
	"context"
	"fmt"

	"mpmc/internal/machine"
	"mpmc/internal/parallel"
	"mpmc/internal/phase"
	"mpmc/internal/sim"
	"mpmc/internal/stats"
	"mpmc/internal/workload"
)

// ProfileMethod selects how a process is characterized.
type ProfileMethod int

const (
	// ProfileStressmark is the paper's Section 3.4 procedure: co-run the
	// process with the stressmark pinned to i ways for i = 0..A−1 and
	// read the MPA curve off the sweep (Eq. 8). It needs no hardware or
	// OS support, only co-scheduling.
	ProfileStressmark ProfileMethod = iota
	// ProfileIdeal measures the process alone against caches of every
	// associativity 1..A: an exact way-partitioning oracle. It isolates
	// the stressmark's imperfection in the profiling ablation.
	ProfileIdeal
)

// ProfileOptions controls the profiling runs.
type ProfileOptions struct {
	// Warmup and Duration apply to each of the A runs (simulated
	// seconds). Zero selects the defaults (3 s and 6 s).
	Warmup   float64
	Duration float64
	Seed     uint64
	Method   ProfileMethod
	// DominantPhase restricts each run's measurement to the longest
	// detected program phase, the Section 6.1 treatment for benchmarks
	// with multiple significant phases ("the longest phases in art and
	// mcf were used").
	DominantPhase bool
	// Workers bounds how many of the A profiling runs execute
	// concurrently; <= 0 selects GOMAXPROCS. Every run's seed is a pure
	// function of its sweep index, so the resulting feature vector is
	// bit-identical at any worker count.
	Workers int
}

func (o *ProfileOptions) withDefaults() ProfileOptions {
	out := *o
	if out.Warmup == 0 {
		out.Warmup = 3
	}
	if out.Duration == 0 {
		out.Duration = 6
	}
	return out
}

// ProfileSeed derives the profiling seed for the named workload from a
// base seed: SplitSeed(base ^ FNV-1a(name), 0). It is a pure function of
// (base, name), so feature vectors are reproducible regardless of arrival
// order or concurrency — the convention shared by the manager, the CLI
// tools, and the serving layer.
func ProfileSeed(base uint64, name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return parallel.SplitSeed(base^h, 0)
}

// Profile characterizes spec on machine m and returns its feature vector,
// using only quantities a real profiling run could measure: HPC counters
// and the power sensor. The paper's O(k) profiling cost for k processes
// corresponds to one Profile call per process.
//
// The sweep honours ctx between runs: a cancelled context stops the sweep
// before the next co-run starts and returns ctx's error, so a caller's
// deadline bounds the work to at most one in-flight profiling step.
func Profile(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts ProfileOptions) (*FeatureVector, error) {
	o := opts.withDefaults()
	var f *FeatureVector
	var err error
	switch o.Method {
	case ProfileStressmark:
		f, err = profileStressmark(ctx, m, spec, o)
	case ProfileIdeal:
		f, err = profileIdeal(ctx, m, spec, o)
	default:
		return nil, fmt.Errorf("core: unknown profile method %d", o.Method)
	}
	if err != nil {
		return nil, err
	}
	// Thread-group width rides along from the spec: it is placement
	// metadata, not a measured quantity, so both methods share the stamp.
	f.Members = spec.Members
	return f, nil
}

// profileStressmark implements the Section 3.4 sweep.
func profileStressmark(ctx context.Context, m *machine.Machine, spec *workload.Spec, o ProfileOptions) (*FeatureVector, error) {
	target := m.Groups[0][0]
	partners := m.Partners(target)
	if len(partners) == 0 {
		return nil, fmt.Errorf("core: machine %s has no cache-sharing partner core for the stressmark", m.Name)
	}
	partner := partners[0]

	a := m.Assoc
	// Each sweep point is an independent simulated co-run whose seed
	// depends only on the stress index, so the A runs fan out across
	// workers; the curve and regression inputs are then assembled in
	// ascending stress order, exactly as the serial loop did. Cancellation
	// propagates through the pool: no new run starts once ctx is done.
	points, err := parallel.Map(ctx, o.Workers, a, func(stress int) (sweepPoint, error) {
		asg := sim.Assignment{Procs: make([][]*workload.Spec, m.NumCores)}
		asg.Procs[target] = []*workload.Spec{spec}
		if stress > 0 {
			asg.Procs[partner] = []*workload.Spec{workload.Stressmark(stress)}
		}
		res, err := sim.Run(m, asg, sim.Options{
			Warmup:             o.Warmup,
			Duration:           o.Duration,
			Seed:               o.Seed + uint64(stress)*1000003,
			CollectProcSamples: o.DominantPhase,
		})
		if err != nil {
			return sweepPoint{}, fmt.Errorf("core: profiling %s at stress %d: %w", spec.Name, stress, err)
		}
		p := res.Procs[0]
		if p.L2Refs == 0 || p.Instructions == 0 {
			return sweepPoint{}, fmt.Errorf("core: profiling %s at stress %d: no activity measured", spec.Name, stress)
		}
		pt := sweepPoint{mpa: p.MPA(), spi: p.SPI()}
		if o.DominantPhase {
			if dm, ds, ok := dominantPhaseStats(res, 0, spec, m.SamplePeriod); ok {
				pt.mpa, pt.spi = dm, ds
			}
		}
		if stress == 0 {
			// Solo run: record the power-profiling vector of Section 5.
			// The instruction-related rates are counter ratios; they are
			// deterministic process properties (Section 5), so the
			// measured values equal the spec's.
			pt.api = float64(p.L2Refs) / p.Instructions
			pt.pAlone = res.AvgMeasuredPower()
			pt.l1rpi = spec.L1RPI
			pt.brpi = spec.BRPI
			pt.fppi = spec.FPPI
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	curve := make([]float64, a+1)
	curve[0] = 1
	mpas := make([]float64, 0, a)
	spis := make([]float64, 0, a)
	for stress, pt := range points {
		// The stressmark holds `stress` ways, leaving A−stress to the
		// process (the paper's S_{B,i} control).
		curve[a-stress] = pt.mpa
		mpas = append(mpas, pt.mpa)
		spis = append(spis, pt.spi)
	}
	solo := points[0]
	return assembleFeature(spec.Name, curve, mpas, spis, solo.api, solo.pAlone, solo.l1rpi, solo.brpi, solo.fppi)
}

// sweepPoint is one profiling run's measurements; the power-profiling
// fields are filled only by the run that observes the process alone.
type sweepPoint struct {
	mpa, spi          float64
	api, pAlone       float64
	l1rpi, brpi, fppi float64
}

// profileIdeal measures the exact MPA curve with dedicated caches of each
// associativity.
func profileIdeal(ctx context.Context, m *machine.Machine, spec *workload.Spec, o ProfileOptions) (*FeatureVector, error) {
	a := m.Assoc
	points, err := parallel.Map(ctx, o.Workers, a, func(i int) (sweepPoint, error) {
		ways := i + 1
		mm := *m
		mm.Assoc = ways
		asg := sim.Assignment{Procs: make([][]*workload.Spec, m.NumCores)}
		asg.Procs[m.Groups[0][0]] = []*workload.Spec{spec}
		res, err := sim.Run(&mm, asg, sim.Options{
			Warmup:   o.Warmup,
			Duration: o.Duration,
			Seed:     o.Seed + uint64(ways)*999983,
		})
		if err != nil {
			return sweepPoint{}, fmt.Errorf("core: ideal-profiling %s at %d ways: %w", spec.Name, ways, err)
		}
		p := res.Procs[0]
		if p.L2Refs == 0 || p.Instructions == 0 {
			return sweepPoint{}, fmt.Errorf("core: ideal-profiling %s at %d ways: no activity", spec.Name, ways)
		}
		pt := sweepPoint{mpa: p.MPA(), spi: p.SPI()}
		if ways == a {
			pt.api = float64(p.L2Refs) / p.Instructions
			pt.pAlone = res.AvgMeasuredPower()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	curve := make([]float64, a+1)
	curve[0] = 1
	mpas := make([]float64, 0, a)
	spis := make([]float64, 0, a)
	for i, pt := range points {
		curve[i+1] = pt.mpa
		mpas = append(mpas, pt.mpa)
		spis = append(spis, pt.spi)
	}
	full := points[a-1]
	return assembleFeature(spec.Name, curve, mpas, spis, full.api, full.pAlone, spec.L1RPI, spec.BRPI, spec.FPPI)
}

// dominantPhaseStats recomputes MPA and SPI over the longest detected
// program phase of one process's window series (Section 6.1). The process
// must run alone on its core (true during profiling), so window wall time
// equals run time. Returns ok=false when the series is too short to
// segment.
func dominantPhaseStats(res *sim.Result, proc int, spec *workload.Spec, period float64) (mpa, spi float64, ok bool) {
	var series []float64
	var samples []sim.ProcSample
	for _, s := range res.ProcSamples {
		if s.Proc != proc {
			continue
		}
		samples = append(samples, s)
		if s.L2Refs == 0 {
			series = append(series, 0)
		} else {
			series = append(series, float64(s.L2Misses)/float64(s.L2Refs))
		}
	}
	if len(series) < 32 {
		return 0, 0, false
	}
	dom := phase.Dominant(phase.Detect(series, phase.Options{}))
	var refs, misses uint64
	for _, s := range samples[dom.Start:dom.End] {
		refs += s.L2Refs
		misses += s.L2Misses
	}
	if refs == 0 {
		return 0, 0, false
	}
	instructions := float64(refs) / spec.L2RPI
	return float64(misses) / float64(refs),
		float64(dom.Len()) * period / instructions,
		true
}

// assembleFeature runs the Eq. 3 regression with fallbacks for degenerate
// sweeps (processes whose MPA barely moves across cache sizes give the
// regression no leverage) and builds the validated feature vector.
func assembleFeature(name string, curve []float64, mpas, spis []float64, api, pAlone, l1rpi, brpi, fppi float64) (*FeatureVector, error) {
	alpha, beta := eq3Fit(mpas, spis)
	f, err := NewFeatureVector(name, curve, alpha, beta, api)
	if err != nil {
		return nil, err
	}
	f.PAloneProcessor = pAlone
	f.L1RPI = l1rpi
	f.BRPI = brpi
	f.FPPI = fppi
	return f, nil
}

// eq3Fit estimates SPI = α·MPA + β, guarding against the degenerate cases
// an automated profiler must survive: flat MPA curves and noise-dominated
// slopes. α is clamped non-negative (more misses never speed a process
// up) and β positive (instructions take time).
func eq3Fit(mpas, spis []float64) (alpha, beta float64) {
	meanMPA := stats.Mean(mpas)
	meanSPI := stats.Mean(spis)
	fit, err := stats.FitLinear(mpas, spis)
	if err == nil {
		alpha, beta = fit.Slope, fit.Intercept
	} else {
		alpha, beta = 0, meanSPI
	}
	if alpha < 0 {
		alpha = 0
		beta = meanSPI
	}
	if beta <= 0 {
		// Anchor the line at the mean operating point with a positive
		// intercept: predictions stay exact near the measured range.
		beta = float64(0.1 * stats.Min(spis))
		if meanMPA > 0 {
			alpha = (meanSPI - beta) / meanMPA
		}
	}
	return alpha, beta
}
