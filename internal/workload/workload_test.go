package workload

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"mpmc/internal/cache"
	"mpmc/internal/hist"
	"mpmc/internal/trace"
)

func TestSuiteValidAndNamed(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite size %d", len(suite))
	}
	seen := map[string]bool{}
	for _, s := range suite {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate name %s", s.Name)
		}
		seen[s.Name] = true
	}
	if len(ModelSet()) != 8 {
		t.Fatal("model set should have 8 benchmarks")
	}
	if ByName("mcf") == nil || ByName("nope") != nil {
		t.Fatal("ByName lookup broken")
	}
}

func TestSuiteSpansIntensityRange(t *testing.T) {
	// The suite must include CPU-bound and memory-bound members for the
	// contention experiments to be meaningful.
	var minMPA, maxMPA = 1.0, 0.0
	for _, s := range Suite() {
		m := s.EffectiveMPA(16)
		if m < minMPA {
			minMPA = m
		}
		if m > maxMPA {
			maxMPA = m
		}
	}
	if minMPA > 0.1 {
		t.Fatalf("no CPU-bound benchmark: min full-cache MPA %v", minMPA)
	}
	if maxMPA < 0.4 {
		t.Fatalf("no memory-bound benchmark: max full-cache MPA %v", maxMPA)
	}
}

func TestEffectiveMPAMixesStreaming(t *testing.T) {
	s := ByName("equake")
	if s.SeqFrac == 0 {
		t.Fatal("equake should stream")
	}
	// Even with an infinite cache the streaming fraction still misses.
	if got := s.EffectiveMPA(1000); got < s.SeqFrac {
		t.Fatalf("effective MPA %v below streaming fraction %v", got, s.SeqFrac)
	}
	if got, want := s.EffectiveMPA(0), 1.0; got != want {
		t.Fatalf("MPA(0) = %v", got)
	}
}

func TestTrueSPIShape(t *testing.T) {
	s := ByName("mcf")
	const lat, ov = 2e-5, 0.25
	beta := s.TrueSPI(lat, ov, 0)
	if beta != s.BaseSPI {
		t.Fatal("zero-miss SPI should be BaseSPI")
	}
	// Without overlap the relationship is exactly linear with slope
	// lat·L2RPI; with overlap it is concave (below the linear chord).
	linear := s.TrueSPI(lat, 0, 1) - beta
	if math.Abs(linear-lat*s.L2RPI) > 1e-18 {
		t.Fatalf("slope %v want %v", linear, lat*s.L2RPI)
	}
	mid := s.TrueSPI(lat, ov, 0.5)
	chord := beta + 0.5*(s.TrueSPI(lat, ov, 1)-beta)
	if mid <= chord {
		t.Fatalf("SPI not concave: mid %v chord %v", mid, chord)
	}
	// Monotone increasing in mpa over [0,1] for ov < 0.5.
	prev := beta
	for mpa := 0.1; mpa <= 1.0; mpa += 0.1 {
		v := s.TrueSPI(lat, ov, mpa)
		if v <= prev {
			t.Fatalf("SPI not increasing at mpa=%v", mpa)
		}
		prev = v
	}
}

func TestGeneratorMatchesEffectiveMPA(t *testing.T) {
	// End-to-end ground truth: each spec's generator, run solo in an
	// A-way cache, produces MPA ≈ EffectiveMPA(A).
	for _, name := range []string{"gzip", "mcf", "equake"} {
		s := ByName(name)
		const numSets, assoc = 16, 8
		gen := s.NewGenerator(numSets, 7)
		c := cache.New(cache.Config{NumSets: numSets, Assoc: assoc, Policy: cache.LRU, Seed: 1})
		for i := 0; i < 60000; i++ {
			c.Access(0, next(gen))
		}
		c.ResetStats()
		for i := 0; i < 250000; i++ {
			c.Access(0, next(gen))
		}
		got := c.Stats(0).MPA()
		want := s.EffectiveMPA(assoc)
		if math.Abs(got-want) > 0.015 {
			t.Fatalf("%s: measured MPA %.4f, analytic %.4f", name, got, want)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	h := hist.MustNew([]float64{1}, 0)
	bad := []*Spec{
		{Name: "", Reuse: h, FootprintCap: 1, L2RPI: 0.1, BaseSPI: 1e-6},
		{Name: "x", Reuse: nil, FootprintCap: 1, L2RPI: 0.1, BaseSPI: 1e-6},
		{Name: "x", Reuse: h, SeqFrac: 2, FootprintCap: 1, L2RPI: 0.1, BaseSPI: 1e-6},
		{Name: "x", Reuse: h, SeqFrac: 0.5, FootprintCap: 1, L2RPI: 0.1, BaseSPI: 1e-6},
		{Name: "x", Reuse: h, FootprintCap: 0, L2RPI: 0.1, BaseSPI: 1e-6},
		{Name: "x", Reuse: h, FootprintCap: 1, L2RPI: 0, BaseSPI: 1e-6},
		{Name: "x", Reuse: h, FootprintCap: 1, L2RPI: 0.1, BaseSPI: 0},
		{Name: "x", Reuse: h, FootprintCap: 1, L2RPI: 0.1, BaseSPI: 1e-6, BRPI: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

func TestStressmarkPinsWays(t *testing.T) {
	// The stressmark with S ways, run solo in an S-way cache, always hits
	// after warm-up; its occupancy is exactly S ways per set.
	const numSets, ways = 8, 4
	s := Stressmark(ways)
	gen := s.NewGenerator(numSets, 3)
	c := cache.New(cache.Config{NumSets: numSets, Assoc: ways, Policy: cache.LRU, Seed: 2})
	for i := 0; i < 20000; i++ {
		c.Access(0, next(gen))
	}
	c.ResetStats()
	for i := 0; i < 50000; i++ {
		c.Access(0, next(gen))
	}
	if mpa := c.Stats(0).MPA(); mpa != 0 {
		t.Fatalf("steady-state stressmark MPA %v", mpa)
	}
	if got := c.AvgWays(0); got != float64(ways) {
		t.Fatalf("stressmark occupies %v ways, want %v", got, ways)
	}
}

// TestStressmarkShared checks the stressmark table: one spec per ways
// count, equal to a fresh build, free to fetch, and safe to use from many
// goroutines at once (this test runs in the -race lane too).
func TestStressmarkShared(t *testing.T) {
	for _, ways := range []int{1, 2, 7, 16, 255} {
		s := Stressmark(ways)
		if Stressmark(ways) != s {
			t.Fatalf("Stressmark(%d) built twice", ways)
		}
		if !reflect.DeepEqual(s, newStressmark(ways)) {
			t.Fatalf("shared Stressmark(%d) differs from a fresh build", ways)
		}
	}
	if a, b := Stressmark(256), Stressmark(256); a == b || !reflect.DeepEqual(a, b) {
		t.Fatal("Stressmark(256) must be a fresh, equal spec per call")
	}
	if n := testing.AllocsPerRun(100, func() { Stressmark(9) }); n != 0 {
		t.Fatalf("fetching a built stressmark allocates %v objects", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, 64)
			for ways := 1; ways <= 24; ways++ {
				s := Stressmark(ways)
				if s.Reuse.MPA(float64(ways)) != 0 || s.Reuse.MPACurve(ways)[ways-1] != 1 {
					t.Errorf("Stressmark(%d): wrong MPA curve", ways)
				}
				s.NewGenerator(16, uint64(g)).Fill(ids)
			}
		}()
	}
	wg.Wait()
}

func TestStressmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Stressmark(0)
}

func TestStressmarkIsFasterThanBenchmarks(t *testing.T) {
	// The profiling assumption S_B = A − S_stress needs the stressmark to
	// dominate the access race: its hit-rate APS must exceed every
	// benchmark's maximum APS by a wide margin.
	st := Stressmark(4)
	stressAPS := st.L2RPI / st.BaseSPI // all-hit access rate
	for _, s := range Suite() {
		benchAPS := s.L2RPI / s.BaseSPI
		if stressAPS < 10*benchAPS {
			t.Fatalf("stressmark APS %.3g not ≫ %s APS %.3g", stressAPS, s.Name, benchAPS)
		}
	}
}

func TestMicrobenchSchedule(t *testing.T) {
	maxRates := [5]float64{6e5, 5e4, 4e4, 2.5e5, 4e5}
	sched := Microbench(maxRates)
	if len(sched) != 1+5*8 {
		t.Fatalf("schedule length %d", len(sched))
	}
	// First phase idle.
	for _, v := range sched[0] {
		if v != 0 {
			t.Fatal("idle phase not idle")
		}
	}
	// Physicality: L2 misses never exceed L2 references.
	for i, r := range sched {
		if r[2] > r[1] {
			t.Fatalf("step %d: L2MPS %v > L2RPS %v", i, r[2], r[1])
		}
	}
	// Each component reaches its peak somewhere.
	for comp := 0; comp < 5; comp++ {
		peak := 0.0
		for _, r := range sched {
			if r[comp] > peak {
				peak = r[comp]
			}
		}
		if comp == 1 {
			// L2RPS may be raised above its nominal peak to stay physical.
			if peak < maxRates[comp] {
				t.Fatalf("component %d peak %v below %v", comp, peak, maxRates[comp])
			}
			continue
		}
		if math.Abs(peak-maxRates[comp]) > 1e-9 {
			t.Fatalf("component %d peak %v want %v", comp, peak, maxRates[comp])
		}
	}
}

func TestGeneratorKindMatchesSpec(t *testing.T) {
	if _, ok := Stressmark(3).NewGenerator(4, 1).(*trace.CyclicGen); !ok {
		t.Fatal("stressmark should use the cyclic generator")
	}
	if _, ok := ByName("gzip").NewGenerator(4, 1).(*trace.ReuseGen); !ok {
		t.Fatal("gzip should use the reuse generator")
	}
	if _, ok := ByName("equake").NewGenerator(4, 1).(*trace.ReuseGen); !ok {
		t.Fatal("equake should use the reuse generator with streaming")
	}
}

func TestPhasedSpecGenerator(t *testing.T) {
	small := hist.MustNew([]float64{0.7, 0.3}, 0)
	broad := hist.MustNew([]float64{0.1, 0.1, 0.1, 0.1}, 0.6)
	mix := hist.MustNew([]float64{0.4, 0.2, 0.05, 0.05}, 0.3)
	s := &Spec{
		Name: "phased", Reuse: mix, FootprintCap: 8,
		L2RPI: 0.02, L1RPI: 0.4, BRPI: 0.1, FPPI: 0.0, BaseSPI: 1e-6,
		Phases: []PhaseSpec{{Reuse: small, Accesses: 100}, {Reuse: broad, Accesses: 100}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	g := s.NewGenerator(4, 3)
	if _, ok := g.(*trace.PhasedGen); !ok {
		t.Fatalf("phased spec built %T", g)
	}
	// The generator must actually alternate behaviour: measure MPA over
	// a window per phase in a 2-way cache; the broad phase misses more.
	c := cache.New(cache.Config{NumSets: 4, Assoc: 2, Policy: cache.LRU, Seed: 1})
	for i := 0; i < 2000; i++ { // warm
		c.Access(0, next(g))
	}
	var mpas []float64
	for p := 0; p < 8; p++ {
		c.ResetStats()
		for i := 0; i < 100; i++ {
			c.Access(0, next(g))
		}
		mpas = append(mpas, c.Stats(0).MPA())
	}
	// Alternating windows must differ substantially.
	var lo, hi float64 = 1, 0
	for _, m := range mpas {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if hi-lo < 0.2 {
		t.Fatalf("phases not visible: window MPAs %v", mpas)
	}
}

// next draws one ID from gen.
func next(gen trace.Generator) uint64 {
	var id [1]uint64
	gen.Fill(id[:])
	return id[0]
}
