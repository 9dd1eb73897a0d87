package sim

import (
	"fmt"
	"math"
	"testing"

	"mpmc/internal/cache"
	"mpmc/internal/hpc"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

func TestSoloRunMatchesGroundTruth(t *testing.T) {
	// A process running alone on a die gets the whole cache: measured MPA
	// must match EffectiveMPA(assoc) and measured SPI must match Eq. 3
	// with α = MemLatency·L2RPI, β = BaseSPI.
	m := machine.TwoCoreWorkstation()
	for _, name := range []string{"gzip", "mcf", "twolf"} {
		spec := workload.ByName(name)
		res, err := Run(m, Single(spec, nil), Options{Warmup: 2, Duration: 6, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Procs[0]
		wantMPA := spec.EffectiveMPA(float64(m.Assoc))
		if math.Abs(p.MPA()-wantMPA) > 0.02 {
			t.Errorf("%s: MPA %.4f want %.4f", name, p.MPA(), wantMPA)
		}
		wantSPI := spec.TrueSPI(m.MemLatency, m.MLPOverlap, p.MPA())
		if math.Abs(p.SPI()-wantSPI)/wantSPI > 0.01 {
			t.Errorf("%s: SPI %.4g want %.4g", name, p.SPI(), wantSPI)
		}
		if p.AvgWays <= 0 || p.AvgWays > float64(m.Assoc)+1e-9 {
			t.Errorf("%s: AvgWays %v outside (0, %d]", name, p.AvgWays, m.Assoc)
		}
	}
}

func TestCoRunPartitionsCache(t *testing.T) {
	// Two cache-hungry processes sharing a die: their effective sizes
	// must sum to ~the associativity (Eq. 1) and each must miss more than
	// when running alone.
	m := machine.TwoCoreWorkstation()
	mcf := workload.ByName("mcf")
	art := workload.ByName("art")

	solo, err := Run(m, Single(mcf, nil), Options{Warmup: 2, Duration: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	co, err := Run(m, Single(mcf, art), Options{Warmup: 2, Duration: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pm := co.ProcByName("mcf")
	pa := co.ProcByName("art")
	sum := pm.AvgWays + pa.AvgWays
	if math.Abs(sum-float64(m.Assoc)) > 0.5 {
		t.Fatalf("effective sizes sum to %.2f, want ~%d", sum, m.Assoc)
	}
	if pm.MPA() <= solo.Procs[0].MPA()+0.005 {
		t.Fatalf("contention did not raise mcf's MPA: solo %.4f co %.4f",
			solo.Procs[0].MPA(), pm.MPA())
	}
}

func TestCPUBoundUnaffectedByContention(t *testing.T) {
	// gzip barely uses the L2: co-running with mcf should not change its
	// SPI much — the heterogeneity the suite is designed to expose.
	m := machine.TwoCoreWorkstation()
	gzip := workload.ByName("gzip")
	mcf := workload.ByName("mcf")
	solo, err := Run(m, Single(gzip, nil), Options{Warmup: 2, Duration: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	co, err := Run(m, Single(gzip, mcf), Options{Warmup: 2, Duration: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s0 := solo.Procs[0].SPI()
	s1 := co.ProcByName("gzip").SPI()
	// gzip does lose ways to mcf (raising its miss rate), but its low L2
	// intensity bounds the damage — far below what a memory-bound
	// process suffers (mcf-vs-mcf degrades by ~2×).
	if math.Abs(s1-s0)/s0 > 0.20 {
		t.Fatalf("gzip SPI changed %.4g → %.4g under contention", s0, s1)
	}
}

func TestTimeSharingSplitsRunTime(t *testing.T) {
	// Two processes on one core each get ~half the wall clock.
	m := machine.TwoCoreWorkstation()
	a := workload.ByName("gzip")
	b := workload.ByName("vpr")
	asg := Assignment{Procs: [][]*workload.Spec{{a, b}, nil}}
	const dur = 8.0
	res, err := Run(m, asg, Options{Warmup: 2, Duration: dur, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Procs {
		share := p.RunTime / dur
		if math.Abs(share-0.5) > 0.1 {
			t.Fatalf("%s run-time share %.3f, want ~0.5", p.Spec.Name, share)
		}
	}
	// SPI under time sharing stays close to solo SPI (the paper's
	// context-switch observation: refill cost is small).
	solo, err := Run(m, Single(a, nil), Options{Warmup: 2, Duration: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.ProcByName("gzip").SPI()
	ss := solo.Procs[0].SPI()
	if math.Abs(ts-ss)/ss > 0.05 {
		t.Fatalf("time-shared SPI %.4g vs solo %.4g", ts, ss)
	}
}

func TestIdleMachinePower(t *testing.T) {
	m := machine.FourCoreServer()
	asg := Assignment{Procs: make([][]*workload.Spec, m.NumCores)}
	res, err := Run(m, asg, Options{Duration: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Oracle.Uncore + float64(m.NumCores)*m.Oracle.CoreIdle
	got := res.AvgMeasuredPower()
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("idle power %.2f W, want ~%.2f W", got, want)
	}
	if len(res.MeasuredPower) < 50 {
		t.Fatalf("only %d power samples", len(res.MeasuredPower))
	}
}

func TestBusyBeatsIdlePower(t *testing.T) {
	m := machine.FourCoreServer()
	idle := Assignment{Procs: make([][]*workload.Spec, m.NumCores)}
	ri, err := Run(m, idle, Options{Duration: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	busy := Single(workload.ByName("gzip"), workload.ByName("art"),
		workload.ByName("vpr"), workload.ByName("ammp"))
	rb, err := Run(m, busy, Options{Warmup: 1, Duration: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rb.AvgMeasuredPower() <= ri.AvgMeasuredPower()+2 {
		t.Fatalf("busy %.2f W not above idle %.2f W",
			rb.AvgMeasuredPower(), ri.AvgMeasuredPower())
	}
}

func TestHPCSamplesConsistent(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	spec := workload.ByName("twolf")
	res, err := Run(m, Single(spec, nil), Options{Warmup: 1, Duration: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Average L1RPS over samples of core 0 must equal L1RPI / SPI.
	var sum float64
	var n int
	for _, s := range res.HPCSamples {
		if s.Core != 0 {
			continue
		}
		sum += s.Rates.L1RPS
		n++
	}
	got := sum / float64(n)
	want := spec.L1RPI / res.Procs[0].SPI()
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("avg L1RPS %.4g want %.4g", got, want)
	}
	// Idle core's samples must be all zero.
	for _, s := range res.HPCSamples {
		if s.Core == 1 && s.Rates != (res.HPCSamples[0].Rates.Scale(0)) {
			t.Fatalf("idle core shows activity: %+v", s.Rates)
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	asg := Single(workload.ByName("vpr"), workload.ByName("bzip2"))
	opts := Options{Warmup: 1, Duration: 2, Seed: 42}
	r1, err := Run(m, asg, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(m, asg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Procs {
		if r1.Procs[i].L2Misses != r2.Procs[i].L2Misses ||
			r1.Procs[i].Instructions != r2.Procs[i].Instructions {
			t.Fatal("runs with equal seeds diverged")
		}
	}
	if r1.AvgMeasuredPower() != r2.AvgMeasuredPower() {
		t.Fatal("power traces diverged")
	}
}

func TestSeedChangesRun(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	asg := Single(workload.ByName("vpr"), nil)
	r1, _ := Run(m, asg, Options{Duration: 1, Seed: 1})
	r2, _ := Run(m, asg, Options{Duration: 1, Seed: 2})
	if r1.Procs[0].L2Misses == r2.Procs[0].L2Misses {
		t.Fatal("different seeds produced identical miss counts")
	}
}

func TestRunValidation(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	if _, err := Run(m, Assignment{Procs: [][]*workload.Spec{nil}}, Options{Duration: 1}); err == nil {
		t.Fatal("accepted assignment with wrong core count")
	}
	asg := Single(nil, nil)
	if _, err := Run(m, asg, Options{Duration: 0}); err == nil {
		t.Fatal("accepted zero duration")
	}
	if _, err := Run(m, asg, Options{Duration: 1, Warmup: -1}); err == nil {
		t.Fatal("accepted negative warmup")
	}
	// A PLRU set too wide for its tree bits is an error from the machine's
	// validation, not a panic out of cache.New.
	m.Policy, m.Assoc = cache.PLRU, cache.MaxPLRUAssoc+1
	if _, err := Run(m, asg, Options{Duration: 1}); err == nil {
		t.Fatal("accepted a 33-way PLRU cache")
	}
}

func TestProcSamplesCollected(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	asg := Assignment{Procs: [][]*workload.Spec{
		{workload.ByName("twolf"), workload.ByName("vpr")}, nil}}
	res, err := Run(m, asg, Options{Warmup: 1, Duration: 4, Seed: 3, CollectProcSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProcSamples) == 0 {
		t.Fatal("no proc samples collected")
	}
	// Exactly one process is active on the core at any sample.
	byTime := map[float64]int{}
	for _, s := range res.ProcSamples {
		if s.Active {
			byTime[s.Time]++
		}
	}
	for tm, n := range byTime {
		if n != 1 {
			t.Fatalf("at t=%v, %d active processes on one core", tm, n)
		}
	}
}

func TestStressmarkCoRunPinsWays(t *testing.T) {
	// The profiling assumption: stressmark with i ways leaves A−i ways to
	// the co-runner. Verified here for the middle of the range.
	m := machine.TwoCoreWorkstation() // 8 ways
	stress := workload.Stressmark(5)
	vpr := workload.ByName("vpr")
	res, err := Run(m, Single(vpr, stress), Options{Warmup: 2, Duration: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sw := res.Procs[1].AvgWays
	if math.Abs(sw-5) > 0.6 {
		t.Fatalf("stressmark holds %.2f ways, want ~5", sw)
	}
	bw := res.Procs[0].AvgWays
	if math.Abs(bw-3) > 0.8 {
		t.Fatalf("vpr holds %.2f ways, want ~3", bw)
	}
}

func BenchmarkCoRunSecond(b *testing.B) {
	// Cost of one simulated second of a 2-process co-run.
	m := machine.TwoCoreWorkstation()
	asg := Single(workload.ByName("mcf"), workload.ByName("art"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, asg, Options{Duration: 1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStressmarkAccess is the cost of one simulated L2 access in a
// profiling co-run: mcf beside the stressmark on the server's first die for
// one simulated second, reported per access of the two processes. At 8 of
// the 16 ways the stressmark holds its ways and almost every access is one
// of its hits, as in most of a profiling sweep; at 15 it thrashes beside
// mcf and most accesses miss.
func BenchmarkStressmarkAccess(b *testing.B) {
	m := machine.FourCoreServer()
	for _, ways := range []int{8, 15} {
		asg := Single(workload.ByName("mcf"), workload.Stressmark(ways), nil, nil)
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			var refs uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(m, asg, Options{Duration: 1, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range res.Procs {
					refs += p.L2Refs
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/access")
		})
	}
}

func TestDieIsolation(t *testing.T) {
	// Processes on different dies of the 4-core server share nothing: a
	// heavy process on die 1 must not change a process's behaviour on
	// die 0 (beyond its own seeded randomness).
	m := machine.FourCoreServer()
	alone, err := Run(m, Single(workload.ByName("twolf"), nil, nil, nil),
		Options{Warmup: 2, Duration: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := Run(m, Single(workload.ByName("twolf"), nil, workload.ByName("mcf"), workload.ByName("art")),
		Options{Warmup: 2, Duration: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	a := alone.ProcByName("twolf")
	c := crowded.ProcByName("twolf")
	if math.Abs(a.MPA()-c.MPA()) > 0.01 {
		t.Fatalf("cross-die interference: MPA %.4f vs %.4f", a.MPA(), c.MPA())
	}
	if rel := math.Abs(a.SPI()-c.SPI()) / a.SPI(); rel > 0.01 {
		t.Fatalf("cross-die interference: SPI %.4g vs %.4g", a.SPI(), c.SPI())
	}
}

func TestWindowRatesPanicsOnMismatch(t *testing.T) {
	r := &Result{}
	r.HPCSamples = make([]hpc.Sample, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 3 samples across 2 cores")
		}
	}()
	r.WindowRates(2)
}

func TestMeasureSyntheticRatesPanics(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero windows")
		}
	}()
	MeasureSyntheticRates(m, hpc.Rates{}, 0, 1)
}

func TestMeasureSyntheticRatesIdle(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	watts := MeasureSyntheticRates(m, hpc.Rates{}, 50, 1)
	if len(watts) != 50 {
		t.Fatalf("got %d windows", len(watts))
	}
	want := m.Oracle.Uncore + 2*m.Oracle.CoreIdle
	var sum float64
	for _, w := range watts {
		sum += w
	}
	if got := sum / 50; math.Abs(got-want)/want > 0.05 {
		t.Fatalf("idle synthetic power %.2f want ~%.2f", got, want)
	}
}

func TestMemBandwidthThrottles(t *testing.T) {
	// A bounded bus must slow a memory-bound process down versus the
	// unconstrained machine, and an absurdly generous bus must not.
	spec := workload.ByName("mcf")
	run := func(bw float64) float64 {
		m := machine.TwoCoreWorkstation()
		m.MemBandwidth = bw
		res, err := Run(m, Single(spec, nil), Options{Warmup: 2, Duration: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Procs[0].SPI()
	}
	free := run(0)
	generous := run(1e9)
	tight := run(8000) // mcf alone misses ~10k/s: the bus is the bottleneck
	if math.Abs(generous-free)/free > 0.01 {
		t.Fatalf("generous bus changed SPI: %.4g vs %.4g", generous, free)
	}
	if tight < free*1.2 {
		t.Fatalf("tight bus did not throttle: %.4g vs %.4g", tight, free)
	}
}
