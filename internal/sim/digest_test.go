package sim

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mpmc/internal/cache"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// resultDigest folds every number a Result carries into one FNV-64a hash,
// floats by their bit pattern: two runs share a digest only if they are
// the same simulation down to the last ulp.
func resultDigest(r *Result) string {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	for _, p := range r.Procs {
		u(uint64(p.Core))
		f(p.Instructions)
		u(p.L2Refs)
		u(p.L2Misses)
		f(p.RunTime)
		f(p.AvgWays)
	}
	u(uint64(len(r.HPCSamples)))
	for _, s := range r.HPCSamples {
		f(s.Time)
		u(uint64(s.Core))
		for _, v := range s.Rates.Vector() {
			f(v)
		}
		f(s.IPS)
	}
	u(uint64(len(r.MeasuredPower)))
	for _, p := range r.MeasuredPower {
		f(p.Time)
		f(p.Power)
	}
	f(r.TruePowerAvg)
	u(uint64(len(r.ProcSamples)))
	for _, s := range r.ProcSamples {
		f(s.Time)
		u(uint64(s.Proc))
		u(s.L2Refs)
		u(s.L2Misses)
		if s.Active {
			u(1)
		} else {
			u(0)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// onGrid puts m's clock on powers of two (memory latency, context switch,
// time slice, sample period), so that event times are exact dyadic sums.
func onGrid(m *machine.Machine) *machine.Machine {
	m.MemLatency = 0x1p-14
	m.MLPOverlap = 0.25
	m.CtxSwitch = 0x1p-13
	m.Timeslice = 0x1p-1
	m.SamplePeriod = 0x1p-5
	return m
}

// gridSpec returns a copy of s whose access interval is a power of two:
// 2^-8 L2 references per instruction at 2^-20 s per instruction.
func gridSpec(s *workload.Spec) *workload.Spec {
	g := *s
	g.L2RPI = 0x1p-8
	g.BaseSPI = 0x1p-20
	return &g
}

// TestRunDigests pins sim.Run to testdata/run_digests.json, recorded
// before the cache, the generators and the event loop were rebuilt for
// speed. It covers every branch of the per-access path: all presets, both
// dies, time sharing, the warm-up reset, per-process samples, prefetch,
// the bandwidth-limited bus, heterogeneous cores and the non-LRU policies.
// The stressmark cases were recorded before the cache's LRU moved from an
// MRU-first shift to recency stamps and gained its way predictor.
func TestRunDigests(t *testing.T) {
	by := workload.ByName
	with := func(m *machine.Machine, edit func(*machine.Machine)) *machine.Machine {
		edit(m)
		return m
	}
	cases := []struct {
		name string
		m    *machine.Machine
		asg  Assignment
		opts Options
	}{
		{"stressmark/server", machine.FourCoreServer(),
			Single(by("mcf"), workload.Stressmark(9), nil, nil), Options{Warmup: 1, Duration: 2, Seed: 101}},
		{"stressmark/workstation", machine.TwoCoreWorkstation(),
			Single(by("vpr"), workload.Stressmark(5)), Options{Warmup: 1, Duration: 2, Seed: 102}},
		{"stressmark/laptop", machine.TwoCoreLaptop(),
			Single(by("art"), workload.Stressmark(7)), Options{Warmup: 1, Duration: 2, Seed: 103}},
		{"stressmark/little", machine.FourCoreLittle(),
			Single(nil, nil, workload.Stressmark(3), by("twolf")), Options{Warmup: 1, Duration: 2, Seed: 104}},
		{"four-procs/server", machine.FourCoreServer(),
			Single(by("gzip"), by("art"), by("equake"), by("ammp")), Options{Warmup: 1, Duration: 2, Seed: 105}},
		{"time-shared/workstation", machine.TwoCoreWorkstation(),
			Assignment{Procs: [][]*workload.Spec{{by("gzip"), by("vpr")}, {by("mcf")}}},
			Options{Warmup: 1, Duration: 5, Seed: 106}},
		{"proc-samples/workstation", machine.TwoCoreWorkstation(),
			Assignment{Procs: [][]*workload.Spec{{by("twolf"), by("swim")}, nil}},
			Options{Warmup: 1, Duration: 4, Seed: 107, CollectProcSamples: true}},
		{"no-warmup/laptop", machine.TwoCoreLaptop(),
			Single(by("bzip2"), by("applu")), Options{Duration: 2, Seed: 108}},
		{"prefetch/server", with(machine.FourCoreServer(), func(m *machine.Machine) { m.Prefetch = true }),
			Single(by("equake"), by("swim"), by("mcf"), nil), Options{Warmup: 1, Duration: 2, Seed: 109}},
		{"bandwidth/workstation", with(machine.TwoCoreWorkstation(), func(m *machine.Machine) { m.MemBandwidth = 12000 }),
			Single(by("mcf"), by("art")), Options{Warmup: 1, Duration: 2, Seed: 110}},
		{"core-speed/workstation", with(machine.TwoCoreWorkstation(), func(m *machine.Machine) { m.CoreSpeed = []float64{1, 0.6} }),
			Single(by("vpr"), by("twolf")), Options{Warmup: 1, Duration: 2, Seed: 111}},
		{"plru/server", with(machine.FourCoreServer(), func(m *machine.Machine) { m.Policy = cache.PLRU }),
			Single(by("mcf"), by("art"), by("vpr"), by("twolf")), Options{Warmup: 1, Duration: 2, Seed: 112}},
		{"plru-prefetch/laptop", with(machine.TwoCoreLaptop(), func(m *machine.Machine) { m.Policy = cache.PLRU; m.Prefetch = true }),
			Single(by("equake"), by("mcf")), Options{Warmup: 1, Duration: 2, Seed: 113}},
		{"random/workstation", with(machine.TwoCoreWorkstation(), func(m *machine.Machine) { m.Policy = cache.Random }),
			Single(by("mcf"), by("art")), Options{Warmup: 1, Duration: 2, Seed: 114}},
		{"random-prefetch/server", with(machine.FourCoreServer(), func(m *machine.Machine) { m.Policy = cache.Random; m.Prefetch = true }),
			Single(by("swim"), by("ammp"), nil, by("gzip")), Options{Warmup: 1, Duration: 2, Seed: 115}},
		// Event times that tie exactly: on a dyadic clock every sum is
		// exact, so cores meet each other and the sample boundaries at the
		// same instant. The earliest event runs first, the lowest-numbered
		// core's among equals, and a sample boundary before any event at
		// its instant.
		{"tie/same-spec/workstation", onGrid(machine.TwoCoreWorkstation()),
			Single(gridSpec(by("gzip")), gridSpec(by("gzip"))), Options{Warmup: 1, Duration: 2, Seed: 116}},
		{"tie/cores-0-2/server", onGrid(machine.FourCoreServer()),
			Single(gridSpec(by("art")), nil, gridSpec(by("art")), nil), Options{Warmup: 1, Duration: 2, Seed: 117}},
		{"tie/time-shared-beside-lone/workstation", onGrid(machine.TwoCoreWorkstation()),
			Assignment{Procs: [][]*workload.Spec{{gridSpec(by("vpr"))}, {gridSpec(by("vpr")), gridSpec(by("twolf"))}}},
			Options{Warmup: 1, Duration: 4, Seed: 118, CollectProcSamples: true}},
		// The stressmark under every policy and with the prefetcher, a
		// thrashing stressmark whose lines keep evicting each other, and a
		// stressmark time-sharing a core: its hits dominate the profiling
		// sweep, so each way the cache can answer them is pinned.
		{"stressmark-plru/server", with(machine.FourCoreServer(), func(m *machine.Machine) { m.Policy = cache.PLRU }),
			Single(by("mcf"), workload.Stressmark(9), nil, nil), Options{Warmup: 1, Duration: 2, Seed: 119}},
		{"stressmark-random-prefetch/workstation", with(machine.TwoCoreWorkstation(), func(m *machine.Machine) { m.Policy = cache.Random; m.Prefetch = true }),
			Single(by("art"), workload.Stressmark(5)), Options{Warmup: 1, Duration: 2, Seed: 120}},
		{"stressmark-prefetch/laptop", with(machine.TwoCoreLaptop(), func(m *machine.Machine) { m.Prefetch = true }),
			Single(by("equake"), workload.Stressmark(7)), Options{Warmup: 1, Duration: 2, Seed: 121}},
		{"stressmark-thrash/server", machine.FourCoreServer(),
			Single(by("mcf"), workload.Stressmark(15), nil, nil), Options{Warmup: 1, Duration: 2, Seed: 122}},
		{"stressmark-time-shared/workstation", machine.TwoCoreWorkstation(),
			Assignment{Procs: [][]*workload.Spec{{by("gzip"), workload.Stressmark(4)}, {by("vpr")}}},
			Options{Warmup: 1, Duration: 5, Seed: 123}},
	}
	got := make(map[string]string, len(cases))
	for _, tc := range cases {
		res, err := Run(tc.m, tc.asg, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = resultDigest(res)
	}

	path := filepath.Join("testdata", "run_digests.json")
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d digests, test has %d cases", len(want), len(got))
	}
	for _, tc := range cases {
		if got[tc.name] != want[tc.name] {
			t.Errorf("%s: digest %s, recorded %s", tc.name, got[tc.name], want[tc.name])
		}
	}
}

// TestRunAllocations pins the allocation count of one simulated second of
// a two-process co-run: set-up only, nothing per access, per window or per
// cache set.
func TestRunAllocations(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	asg := Single(workload.ByName("mcf"), workload.ByName("art"))
	n := testing.AllocsPerRun(3, func() {
		if _, err := Run(m, asg, Options{Duration: 1, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	})
	if n > 150 {
		t.Fatalf("sim.Run allocates %v objects per run, want ≤ 150", n)
	}
}
