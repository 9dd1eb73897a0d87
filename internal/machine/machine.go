// Package machine defines the simulated CMP configurations standing in for
// the paper's three test systems:
//
//   - a 4-core server modeled on the Intel Core 2 Quad Q6600: two dies,
//     two cores per die, each die pair sharing a 16-way L2;
//   - a 2-core workstation modeled on the Pentium Dual-Core E2220 with a
//     smaller shared L2;
//   - a 2-core laptop modeled on the Core 2 Duo used for the second
//     performance validation, with a 12-way shared L2.
//
// Geometries keep the real associativities (16/8/12 ways — associativity
// is what the effective-cache-size model partitions) while scaling the set
// count down so steady state is reached in simulable time. The time base
// is scaled to a ~1 MIPS core (see workload package docs); each machine's
// power oracle has distinct nominal parameters, mirroring the paper's
// claim that the modeling procedure transfers across architectures without
// changes.
package machine

import (
	"fmt"

	"mpmc/internal/cache"
	"mpmc/internal/freq"
	"mpmc/internal/power"
)

// Machine is a full description of one simulated platform.
type Machine struct {
	Name     string
	NumCores int
	// Groups lists the cores sharing each last-level cache; every core
	// appears in exactly one group.
	Groups [][]int
	// NumSets and Assoc give the geometry of each group's shared L2.
	NumSets int
	Assoc   int
	// Policy is the L2 replacement policy (LRU unless an ablation says
	// otherwise).
	Policy cache.Policy
	// Prefetch enables the next-line L2 prefetcher (off by default, per
	// the paper's no-prefetch assumption).
	Prefetch bool

	// CoreSpeed optionally gives per-core speed factors for heterogeneous
	// (big.LITTLE-style) processors: core c executes instructions in
	// BaseSPI/CoreSpeed[c] seconds, while memory latency is unchanged.
	// Empty means every core runs at factor 1. The paper claims its
	// models "are general enough to accommodate heterogeneous tasks and
	// processors"; this knob is how that claim is exercised.
	CoreSpeed []float64

	// MemLatency is the time a last-level miss stalls the core, seconds.
	MemLatency float64
	// MemBandwidth optionally bounds the shared memory bus of each cache
	// group, in misses served per second (0 = unconstrained). When the
	// aggregate miss rate approaches it, misses queue and the effective
	// miss penalty grows — the "constrained processor-memory bandwidth"
	// regime the paper invokes in Section 3.1, and a deliberate violation
	// of the model's fixed-penalty assumption.
	MemBandwidth float64
	// MLPOverlap models memory-level parallelism: when an access misses
	// and the previous access also missed, the new miss overlaps the old
	// one and only costs (1−MLPOverlap)·MemLatency. This makes true SPI
	// mildly concave in MPA, so the linear Eq. 3 carries the same kind of
	// model-form error it has on real hardware.
	MLPOverlap float64
	// Timeslice is the scheduler quantum for time sharing, seconds.
	Timeslice float64
	// CtxSwitch is the direct context-switch overhead, seconds.
	CtxSwitch float64
	// SamplePeriod is the HPC sampling period, seconds (paper: 30 ms).
	SamplePeriod float64

	// Oracle and Sensor parameterize the ground-truth power and the
	// measurement chain.
	Oracle power.OracleParams
	Sensor power.SensorParams

	// Freq is the machine's discrete DVFS ladder (nil = one fixed state,
	// the base — exactly the pre-DVFS behavior). The fleet scheduler may
	// clock a machine to any rung; every model quantity scales per the
	// internal/freq contract and is bit-identical to the unscaled value
	// at the base rung.
	Freq *freq.Domain
	// Core tags the preset's core microarchitecture (big/LITTLE-style
	// parameter sets). The zero value reads as the out-of-order baseline
	// with both scaling factors exactly 1.
	Core freq.CoreType
}

// Validate reports configuration inconsistencies.
func (m *Machine) Validate() error {
	if m.NumCores <= 0 {
		return fmt.Errorf("machine %s: no cores", m.Name)
	}
	seen := make([]bool, m.NumCores)
	for _, g := range m.Groups {
		if len(g) == 0 {
			return fmt.Errorf("machine %s: empty cache group", m.Name)
		}
		for _, c := range g {
			if c < 0 || c >= m.NumCores {
				return fmt.Errorf("machine %s: core %d out of range", m.Name, c)
			}
			if seen[c] {
				return fmt.Errorf("machine %s: core %d in two cache groups", m.Name, c)
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("machine %s: core %d not in any cache group", m.Name, c)
		}
	}
	if m.NumSets <= 0 || m.Assoc <= 0 {
		return fmt.Errorf("machine %s: bad cache geometry", m.Name)
	}
	if m.NumSets > cache.MaxSets {
		return fmt.Errorf("machine %s: %d cache sets, at most %d supported", m.Name, m.NumSets, cache.MaxSets)
	}
	if m.Policy == cache.PLRU && m.Assoc > cache.MaxPLRUAssoc {
		return fmt.Errorf("machine %s: PLRU supports at most %d ways, have %d", m.Name, cache.MaxPLRUAssoc, m.Assoc)
	}
	if m.MemLatency <= 0 || m.Timeslice <= 0 || m.SamplePeriod <= 0 {
		return fmt.Errorf("machine %s: non-positive timing parameter", m.Name)
	}
	if m.MLPOverlap < 0 || m.MLPOverlap >= 1 {
		return fmt.Errorf("machine %s: MLPOverlap %v outside [0,1)", m.Name, m.MLPOverlap)
	}
	if m.MemBandwidth < 0 {
		return fmt.Errorf("machine %s: negative memory bandwidth", m.Name)
	}
	if m.CtxSwitch < 0 {
		return fmt.Errorf("machine %s: negative context-switch cost", m.Name)
	}
	if len(m.CoreSpeed) != 0 {
		if len(m.CoreSpeed) != m.NumCores {
			return fmt.Errorf("machine %s: %d core speeds for %d cores", m.Name, len(m.CoreSpeed), m.NumCores)
		}
		for c, v := range m.CoreSpeed {
			if v <= 0 {
				return fmt.Errorf("machine %s: non-positive speed for core %d", m.Name, c)
			}
		}
	}
	if err := m.Freq.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", m.Name, err)
	}
	if err := m.Core.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", m.Name, err)
	}
	return nil
}

// SpeedOf returns core c's speed factor (1 for homogeneous machines).
func (m *Machine) SpeedOf(c int) float64 {
	if len(m.CoreSpeed) == 0 {
		return 1
	}
	return m.CoreSpeed[c]
}

// GroupOf returns the index of the cache group containing core, or -1.
func (m *Machine) GroupOf(core int) int {
	for gi, g := range m.Groups {
		for _, c := range g {
			if c == core {
				return gi
			}
		}
	}
	return -1
}

// Partners returns the other cores sharing core's cache — the paper's
// partner set PS_C.
func (m *Machine) Partners(core int) []int {
	gi := m.GroupOf(core)
	if gi < 0 {
		return nil
	}
	var out []int
	for _, c := range m.Groups[gi] {
		if c != core {
			out = append(out, c)
		}
	}
	return out
}

// CacheConfig returns the cache.Config of one shared L2 instance.
func (m *Machine) CacheConfig(seed uint64) cache.Config {
	return cache.Config{
		NumSets:  m.NumSets,
		Assoc:    m.Assoc,
		Policy:   m.Policy,
		Prefetch: m.Prefetch,
		Seed:     seed,
	}
}

// StandardLadder is the three-rung DVFS domain every stock preset
// carries: two reduced points plus the base. Adding the ladder changes
// nothing at the base rung (the scaling helpers are identity-gated), so
// pre-DVFS goldens stay byte-identical; it only gives the energy-aware
// policies and the power-cap enforcer rungs to move along.
func StandardLadder() *freq.Domain {
	return &freq.Domain{States: []freq.State{
		{Ratio: 0.6, Voltage: 0.85},
		{Ratio: 0.8, Voltage: 0.92},
		{Ratio: 1, Voltage: 1},
	}}
}

// FourCoreServer returns the Q6600-like reference machine used for
// Table 1, Table 3, Table 4, and Figure 2.
func FourCoreServer() *Machine {
	m := &Machine{
		Name:         "4-core-server",
		NumCores:     4,
		Groups:       [][]int{{0, 1}, {2, 3}},
		NumSets:      64,
		Assoc:        16,
		Policy:       cache.LRU,
		MemLatency:   6.0e-5,
		MLPOverlap:   0.25,
		Timeslice:    2.0,
		CtxSwitch:    1.0e-4,
		SamplePeriod: 0.03,
		Oracle: power.OracleParams{
			CoreIdle:  8.0,
			Uncore:    12.0,
			L1Ref:     1.2e-5,
			L2Ref:     2.0e-4,
			L2Miss:    -2.5e-4,
			Branch:    1.1e-5,
			FPOp:      9.0e-6,
			SatL1:     4.5e5,
			QuadL2:    1.6e-9,
			NoiseStd:  0.45,
			WanderStd: 0.9,
			WanderTau: 17,
		},
		Sensor: power.DefaultSensor(),
		Freq:   StandardLadder(),
		Core:   freq.OutOfOrder(),
	}
	mustValidate(m)
	return m
}

// TwoCoreWorkstation returns the E2220-like machine used for Table 2.
// Its nominal power is lower and its shared L2 smaller (8 ways).
func TwoCoreWorkstation() *Machine {
	m := &Machine{
		Name:         "2-core-workstation",
		NumCores:     2,
		Groups:       [][]int{{0, 1}},
		NumSets:      32,
		Assoc:        8,
		Policy:       cache.LRU,
		MemLatency:   6.4e-5,
		MLPOverlap:   0.20,
		Timeslice:    2.0,
		CtxSwitch:    1.0e-4,
		SamplePeriod: 0.03,
		Oracle: power.OracleParams{
			CoreIdle:  6.0,
			Uncore:    8.0,
			L1Ref:     9.0e-6,
			L2Ref:     1.6e-4,
			L2Miss:    -1.8e-4,
			Branch:    8.0e-6,
			FPOp:      7.0e-6,
			SatL1:     4.0e5,
			QuadL2:    2.0e-9,
			NoiseStd:  0.40,
			WanderStd: 0.7,
			WanderTau: 17,
		},
		Sensor: power.DefaultSensor(),
		Freq:   StandardLadder(),
		Core:   freq.OutOfOrder(),
	}
	mustValidate(m)
	return m
}

// TwoCoreLaptop returns the Core 2 Duo-like machine (12-way shared L2)
// used for the second performance-model validation (55 pairs of 10
// benchmarks, Section 6.2).
func TwoCoreLaptop() *Machine {
	m := &Machine{
		Name:         "2-core-laptop",
		NumCores:     2,
		Groups:       [][]int{{0, 1}},
		NumSets:      48,
		Assoc:        12,
		Policy:       cache.LRU,
		MemLatency:   6.2e-5,
		MLPOverlap:   0.22,
		Timeslice:    2.0,
		CtxSwitch:    1.0e-4,
		SamplePeriod: 0.03,
		Oracle: power.OracleParams{
			CoreIdle:  4.0,
			Uncore:    6.0,
			L1Ref:     7.0e-6,
			L2Ref:     1.2e-4,
			L2Miss:    -1.5e-4,
			Branch:    7.0e-6,
			FPOp:      6.0e-6,
			SatL1:     3.5e5,
			QuadL2:    2.0e-9,
			NoiseStd:  0.30,
			WanderStd: 0.5,
			WanderTau: 17,
		},
		Sensor: power.DefaultSensor(),
		Freq:   StandardLadder(),
		Core:   freq.OutOfOrder(),
	}
	mustValidate(m)
	return m
}

// FourCoreLittle returns a little-core variant of the server: same cache
// geometry and die layout, but in-order cores (higher compute SPI, lower
// dynamic event energy) — the heterogeneous half of a big/LITTLE fleet.
func FourCoreLittle() *Machine {
	m := &Machine{
		Name:         "4-core-little",
		NumCores:     4,
		Groups:       [][]int{{0, 1}, {2, 3}},
		NumSets:      64,
		Assoc:        16,
		Policy:       cache.LRU,
		MemLatency:   6.0e-5,
		MLPOverlap:   0.15,
		Timeslice:    2.0,
		CtxSwitch:    1.0e-4,
		SamplePeriod: 0.03,
		Oracle: power.OracleParams{
			CoreIdle:  3.5,
			Uncore:    9.0,
			L1Ref:     5.5e-6,
			L2Ref:     9.0e-5,
			L2Miss:    -1.1e-4,
			Branch:    5.0e-6,
			FPOp:      4.0e-6,
			SatL1:     4.5e5,
			QuadL2:    1.6e-9,
			NoiseStd:  0.30,
			WanderStd: 0.5,
			WanderTau: 17,
		},
		Sensor: power.DefaultSensor(),
		Freq:   StandardLadder(),
		Core:   freq.InOrder(),
	}
	mustValidate(m)
	return m
}

func mustValidate(m *Machine) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
}
