// Package sim is the event-driven co-execution engine: it runs a set of
// synthetic processes on a simulated multi-core machine, with round-robin
// time sharing on each core, per-die shared L2 caches, HPC sampling, and
// the power oracle + sensor chain.
//
// It is the stand-in for "run these SPEC benchmarks on the Q6600 and
// record PAPI counters and the current clamp": every experiment in the
// reproduction obtains its measured data from this package, and the models
// under test never see anything the corresponding hardware experiment
// would not expose.
//
// Timing model: a process issues one L2 reference every 1/L2RPI
// instructions; the interval costs BaseSPI seconds per instruction (scaled
// by the core's speed factor on heterogeneous machines) plus the memory
// latency if the reference misses, with back-to-back misses overlapping by
// the machine's MLPOverlap factor. Steady-state SPI is therefore mildly
// concave in MPA — approximately the linear Eq. 3 relationship with
// α ≈ MemLatency·L2RPI and β ≈ BaseSPI, whose parameters the profiling
// stage must recover from measurements (see workload.Spec.TrueSPI for the
// exact expression).
package sim

import (
	"fmt"
	"math"

	"mpmc/internal/cache"
	"mpmc/internal/hpc"
	"mpmc/internal/machine"
	"mpmc/internal/power"
	"mpmc/internal/trace"
	"mpmc/internal/workload"
	"mpmc/internal/xrand"
)

// Assignment maps processes to cores: Procs[c] lists the specs
// time-sharing core c (empty slice = idle core).
type Assignment struct {
	Procs [][]*workload.Spec
}

// Single builds an assignment with at most one process per core; nil
// entries leave the core idle.
func Single(specs ...*workload.Spec) Assignment {
	a := Assignment{Procs: make([][]*workload.Spec, len(specs))}
	for i, s := range specs {
		if s != nil {
			a.Procs[i] = []*workload.Spec{s}
		}
	}
	return a
}

// Options controls a simulation run.
type Options struct {
	// Warmup is discarded simulated time before measurement starts.
	Warmup float64
	// Duration is the measured simulated time.
	Duration float64
	// Seed drives every random stream of the run.
	Seed uint64
	// CollectProcSamples records per-process per-window activity, used by
	// the context-switch refill study.
	CollectProcSamples bool
}

// ProcResult holds one process's measurements over the measured interval.
type ProcResult struct {
	Spec *workload.Spec
	Core int

	Instructions float64
	L2Refs       uint64
	L2Misses     uint64
	// RunTime is the time the process actually executed (excludes time
	// descheduled and context-switch overhead).
	RunTime float64
	// AvgWays is the mean number of ways per set the process occupied in
	// its shared cache, sampled on the HPC period: the measured effective
	// cache size S_i.
	AvgWays float64
}

// MPA returns measured misses per access.
func (p *ProcResult) MPA() float64 {
	if p.L2Refs == 0 {
		return 0
	}
	return float64(p.L2Misses) / float64(p.L2Refs)
}

// SPI returns measured seconds per instruction.
func (p *ProcResult) SPI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return p.RunTime / p.Instructions
}

// APS returns measured cache accesses per second of run time.
func (p *ProcResult) APS() float64 {
	if p.RunTime == 0 {
		return 0
	}
	return float64(p.L2Refs) / p.RunTime
}

// ProcSample is one per-window observation of one process (only collected
// with Options.CollectProcSamples).
type ProcSample struct {
	Time     float64
	Proc     int
	L2Refs   uint64
	L2Misses uint64
	Active   bool // was the process scheduled at window end
}

// Result is everything a simulation run measured.
type Result struct {
	Procs []*ProcResult
	// HPCSamples holds per-core samples on the machine's sampling period
	// (the PAPI stream), measured-interval only.
	HPCSamples []hpc.Sample
	// MeasuredPower is the sensor's processor-power trace, one point per
	// sampling window.
	MeasuredPower power.Trace
	// TruePowerAvg is the oracle's average power (diagnostics only;
	// models must use MeasuredPower).
	TruePowerAvg float64
	// ProcSamples is per-process window activity when requested.
	ProcSamples []ProcSample
}

// AvgMeasuredPower returns the mean of the measured power trace.
func (r *Result) AvgMeasuredPower() float64 { return r.MeasuredPower.Mean() }

// ProcByName returns the first measured process with the given spec name.
func (r *Result) ProcByName(name string) *ProcResult {
	for _, p := range r.Procs {
		if p.Spec.Name == name {
			return p
		}
	}
	return nil
}

// idBatch is how many line IDs a process draws from its generator at a
// time. A stream never depends on cache outcomes, so drawing ahead changes
// no run.
const idBatch = 256

// proc is the internal runtime state of one process.
type proc struct {
	spec  *workload.Spec
	gen   trace.Generator
	ids   [idBatch]uint64 // gen's next IDs, from ids[next] on
	next  int
	cache *cache.Cache // the shared L2 of the process's core
	core  int
	group int
	owner int

	// Per-access increments, constant for the run.
	instrPerAccess float64
	l1PerAccess    float64 // L1RPI · instrPerAccess
	brPerAccess    float64 // BRPI · instrPerAccess
	fpPerAccess    float64 // FPPI · instrPerAccess
	gapTime        float64 // instrPerAccess · BaseSPI / core speed

	counts   hpc.Counts
	runTime  float64
	lastMiss bool

	waysSum     float64
	waysSamples int

	prevWindow hpc.Counts // for per-proc window deltas
}

// coreState tracks scheduling on one core.
type coreState struct {
	queue    []*proc
	active   int // index into queue; -1 when idle
	sliceEnd float64
	nextTime float64 // next event time; +Inf when idle
	rotate   bool    // next event is a rotation, not an access

	// counts are the cumulative core-level counters (what HPCs see). A
	// core with one process leaves them to doSample, which copies the
	// process's: they would receive the same additions in the same order.
	counts hpc.Counts
	prev   hpc.Counts // counts at the previous sample boundary
}

// Run simulates asg on m and returns the measurements.
func Run(m *machine.Machine, asg Assignment, opts Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(asg.Procs) != m.NumCores {
		return nil, fmt.Errorf("sim: assignment covers %d cores, machine has %d", len(asg.Procs), m.NumCores)
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration")
	}
	if opts.Warmup < 0 {
		return nil, fmt.Errorf("sim: negative warmup")
	}

	rng := xrand.New(opts.Seed)
	caches := make([]*cache.Cache, len(m.Groups))
	busFreeAt := make([]float64, len(m.Groups)) // shared memory bus per group
	for gi := range m.Groups {
		caches[gi] = cache.New(m.CacheConfig(rng.Uint64()))
	}
	oracle := power.NewOracle(m.Oracle, rng.Uint64())
	sensor := power.NewSensor(m.Sensor, rng.Uint64())

	// Build process and core state.
	var procs []*proc
	cores := make([]coreState, m.NumCores)
	for c := range cores {
		cs := &cores[c]
		cs.active, cs.nextTime = -1, math.Inf(1)
		for _, spec := range asg.Procs[c] {
			if err := spec.Validate(); err != nil {
				return nil, err
			}
			ipa := 1 / spec.L2RPI
			group := m.GroupOf(c)
			p := &proc{
				spec:           spec,
				gen:            spec.NewGenerator(m.NumSets, rng.Uint64()),
				next:           idBatch,
				cache:          caches[group],
				core:           c,
				group:          group,
				owner:          len(procs),
				instrPerAccess: ipa,
				l1PerAccess:    spec.L1RPI * ipa,
				brPerAccess:    spec.BRPI * ipa,
				fpPerAccess:    spec.FPPI * ipa,
				// Heterogeneous cores execute instructions faster or slower;
				// memory latency is shared and unchanged.
				gapTime: ipa * spec.BaseSPI / m.SpeedOf(c),
			}
			procs = append(procs, p)
			cs.queue = append(cs.queue, p)
		}
		if len(cs.queue) > 0 {
			cs.active = 0
			cs.sliceEnd = m.Timeslice
			cs.nextTime = cs.queue[0].gapTime
		}
	}
	if len(procs) > cache.MaxOwners {
		return nil, fmt.Errorf("sim: %d processes exceed owner limit %d", len(procs), cache.MaxOwners)
	}

	// The measured window count is known up front, within rounding.
	windows := int(opts.Duration/m.SamplePeriod) + 1
	res := &Result{
		HPCSamples:    make([]hpc.Sample, 0, windows*m.NumCores),
		MeasuredPower: make(power.Trace, 0, windows),
	}
	coreRates := make([]hpc.Rates, m.NumCores)
	// Miss costs, constant for the run.
	overlappedStall := m.MemLatency * (1 - m.MLPOverlap)
	var busService float64
	if m.MemBandwidth > 0 {
		busService = 1 / m.MemBandwidth
	}
	endTime := opts.Warmup + opts.Duration
	nextSample := m.SamplePeriod
	measuring := opts.Warmup == 0
	var truePowerSum float64
	var truePowerN int

	resetForMeasurement := func() {
		for _, p := range procs {
			p.counts = hpc.Counts{}
			p.runTime = 0
			p.waysSum = 0
			p.waysSamples = 0
			p.prevWindow = hpc.Counts{}
		}
		for c := range cores {
			cores[c].counts = hpc.Counts{}
			cores[c].prev = hpc.Counts{}
		}
		for _, ch := range caches {
			ch.ResetStats()
		}
	}

	doSample := func(t float64) {
		for c := range cores {
			cs := &cores[c]
			if len(cs.queue) == 1 {
				cs.counts = cs.queue[0].counts
			}
			delta := cs.counts.Sub(cs.prev)
			cs.prev = cs.counts
			rates := delta.RatesOver(m.SamplePeriod)
			if !measuring {
				continue
			}
			res.HPCSamples = append(res.HPCSamples, hpc.Sample{
				Time:  t,
				Core:  c,
				Rates: rates,
				IPS:   delta.Instructions / m.SamplePeriod,
			})
		}
		if measuring {
			// Oracle consumes the last window's per-core rates.
			n := len(res.HPCSamples)
			for i := n - m.NumCores; i < n; i++ {
				coreRates[res.HPCSamples[i].Core] = res.HPCSamples[i].Rates
			}
			truP := oracle.ProcessorPower(coreRates)
			truePowerSum += truP
			truePowerN++
			res.MeasuredPower = append(res.MeasuredPower, power.TracePoint{
				Time:  t,
				Power: sensor.MeasureWindow(truP, m.SamplePeriod),
			})
			for _, p := range procs {
				p.waysSum += p.cache.AvgWays(p.owner)
				p.waysSamples++
			}
			if opts.CollectProcSamples {
				for i, p := range procs {
					d := p.counts.Sub(p.prevWindow)
					p.prevWindow = p.counts
					cs := &cores[p.core]
					res.ProcSamples = append(res.ProcSamples, ProcSample{
						Time:     t,
						Proc:     i,
						L2Refs:   uint64(d.L2Refs),
						L2Misses: uint64(d.L2Misses),
						Active:   cs.active >= 0 && cs.queue[cs.active] == p,
					})
				}
			}
		}
	}

	warmupDone := opts.Warmup == 0
	for {
		// The next event is the earliest, the lowest-numbered core's among
		// equals. before is the earliest event of the lower-numbered cores,
		// after that of the higher-numbered ones.
		minT, minC := math.Inf(1), -1
		before, after := math.Inf(1), math.Inf(1)
		for c := range cores {
			if t := cores[c].nextTime; t < minT {
				before, minT, minC, after = minT, t, c, math.Inf(1)
			} else if t < after {
				after = t
			}
		}
		// Interleave sampling, warmup reset, and termination in time order.
		for nextSample <= minT {
			if !warmupDone && nextSample > opts.Warmup {
				// Counters reset at this boundary; the straddling window
				// is discarded rather than reported as a zero sample.
				resetForMeasurement()
				measuring = true
				warmupDone = true
				nextSample += m.SamplePeriod
				continue
			}
			if nextSample > endTime {
				goto done
			}
			doSample(nextSample)
			nextSample += m.SamplePeriod
		}
		if minC < 0 {
			// No runnable processes; only sampling advances time.
			continue
		}
		// The core runs its events in a burst for as long as the scan above
		// would pick it again with no sample due first. An event moves only
		// its own core's next event, so before and after hold throughout.
		// The running process's counters, run time and ID cursor live in
		// locals for its stint, written back when the burst ends or the
		// core rotates; each float addition is the one it would be in p.
		cs := &cores[minC]
		bound := min(before, nextSample)
		timeShared := len(cs.queue) > 1
		t := minT
		for t < bound && t <= after {
			if cs.rotate {
				cs.rotate = false
				cs.active = (cs.active + 1) % len(cs.queue)
				cs.sliceEnd = t + m.Timeslice
				t = t + m.CtxSwitch + cs.queue[cs.active].gapTime
				continue
			}
			p := cs.queue[cs.active]
			c, owner := p.cache, p.owner
			instr, l1, br, fp := p.counts.Instructions, p.counts.L1Refs, p.counts.Branches, p.counts.FPOps
			refs, misses := p.counts.L2Refs, p.counts.L2Misses
			runTime, lastMiss, next := p.runTime, p.lastMiss, p.next
			for {
				// Execute the access interval ending at t.
				instr += p.instrPerAccess
				l1 += p.l1PerAccess
				br += p.brPerAccess
				fp += p.fpPerAccess
				refs++
				if next == idBatch {
					p.gen.Fill(p.ids[:])
					next = 0
				}
				id := p.ids[next]
				next++
				hit := c.PredictedHit(owner, id) || c.Access(owner, id)
				dt := p.gapTime
				if !hit {
					misses++
					// Back-to-back misses overlap (memory-level parallelism).
					stall := m.MemLatency
					if lastMiss {
						stall = overlappedStall
					}
					if busService > 0 {
						// The group's memory bus serves one miss per
						// 1/bandwidth seconds; queued misses wait behind
						// in-flight ones.
						start := t
						if busFreeAt[p.group] > start {
							stall += busFreeAt[p.group] - start
							start = busFreeAt[p.group]
						}
						busFreeAt[p.group] = start + busService
					}
					dt += stall
				}
				lastMiss = !hit
				runTime += dt
				t += dt
				if timeShared {
					cs.counts.Instructions += p.instrPerAccess
					cs.counts.L1Refs += p.l1PerAccess
					cs.counts.Branches += p.brPerAccess
					cs.counts.FPOps += p.fpPerAccess
					cs.counts.L2Refs++
					if !hit {
						cs.counts.L2Misses++
					}
					// A slice that ends inside the interval rotates when the
					// interval completes: a memory stall is not preempted.
					if t >= cs.sliceEnd {
						cs.rotate = true
						break
					}
				}
				if !(t < bound && t <= after) {
					break
				}
			}
			p.counts.Instructions, p.counts.L1Refs, p.counts.Branches, p.counts.FPOps = instr, l1, br, fp
			p.counts.L2Refs, p.counts.L2Misses = refs, misses
			p.runTime, p.lastMiss, p.next = runTime, lastMiss, next
		}
		cs.nextTime = t
	}

done:
	for _, p := range procs {
		pr := &ProcResult{
			Spec:         p.spec,
			Core:         p.core,
			Instructions: p.counts.Instructions,
			L2Refs:       uint64(p.counts.L2Refs),
			L2Misses:     uint64(p.counts.L2Misses),
			RunTime:      p.runTime,
		}
		if p.waysSamples > 0 {
			pr.AvgWays = p.waysSum / float64(p.waysSamples)
		}
		res.Procs = append(res.Procs, pr)
	}
	if truePowerN > 0 {
		res.TruePowerAvg = truePowerSum / float64(truePowerN)
	}
	return res, nil
}
