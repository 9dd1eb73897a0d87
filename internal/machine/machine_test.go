package machine

import (
	"testing"

	"mpmc/internal/cache"
	"mpmc/internal/freq"
	"mpmc/internal/power"
)

func TestPresetsValid(t *testing.T) {
	for _, m := range []*Machine{FourCoreServer(), TwoCoreWorkstation(), TwoCoreLaptop(), FourCoreLittle()} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
}

func TestLittlePresetIsTheServersInOrderTwin(t *testing.T) {
	big, little := FourCoreServer(), FourCoreLittle()
	if little.NumCores != big.NumCores || little.Assoc != big.Assoc ||
		little.NumSets != big.NumSets || len(little.Groups) != len(big.Groups) {
		t.Fatalf("little geometry %+v diverges from the server's", little)
	}
	if little.Core.Name != "in-order" {
		t.Fatalf("little core type %q, want in-order", little.Core.Name)
	}
	if big.Core.Name != "out-of-order" {
		t.Fatalf("server core type %q, want out-of-order", big.Core.Name)
	}
	if little.Freq.NumStates() < 2 {
		t.Fatalf("little ladder has %d states, want a real DVFS range", little.Freq.NumStates())
	}
	// The LITTLE trade: cheaper dynamic events, not a different die.
	if little.Oracle.L2Ref >= big.Oracle.L2Ref || little.Oracle.CoreIdle >= big.Oracle.CoreIdle {
		t.Fatalf("little oracle %+v not below the server's %+v", little.Oracle, big.Oracle)
	}
}

func TestPresetGeometriesMatchPaper(t *testing.T) {
	if m := FourCoreServer(); m.Assoc != 16 || m.NumCores != 4 || len(m.Groups) != 2 {
		t.Fatalf("4-core server geometry %+v", m)
	}
	if m := TwoCoreWorkstation(); m.Assoc != 8 || m.NumCores != 2 {
		t.Fatalf("workstation geometry %+v", m)
	}
	if m := TwoCoreLaptop(); m.Assoc != 12 || m.NumCores != 2 {
		t.Fatalf("laptop geometry %+v", m)
	}
}

func TestGroupOfAndPartners(t *testing.T) {
	m := FourCoreServer()
	if m.GroupOf(0) != 0 || m.GroupOf(1) != 0 || m.GroupOf(2) != 1 || m.GroupOf(3) != 1 {
		t.Fatal("GroupOf wrong")
	}
	p := m.Partners(0)
	if len(p) != 1 || p[0] != 1 {
		t.Fatalf("Partners(0) = %v", p)
	}
	if m.GroupOf(99) != -1 || m.Partners(99) != nil {
		t.Fatal("out-of-range core should have no group")
	}
}

func TestCacheConfig(t *testing.T) {
	m := TwoCoreLaptop()
	cfg := m.CacheConfig(7)
	if cfg.NumSets != m.NumSets || cfg.Assoc != m.Assoc || cfg.Seed != 7 {
		t.Fatalf("cache config %+v", cfg)
	}
	// The config must construct a working cache.
	c := cache.New(cfg)
	if c.Assoc() != 12 {
		t.Fatal("constructed cache wrong")
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	base := func() *Machine {
		return &Machine{
			Name: "t", NumCores: 2, Groups: [][]int{{0, 1}},
			NumSets: 4, Assoc: 2,
			MemLatency: 1e-5, Timeslice: 1, SamplePeriod: 0.03,
		}
	}
	cases := []func(*Machine){
		func(m *Machine) { m.NumCores = 0 },
		func(m *Machine) { m.Groups = [][]int{{0}} },         // core 1 unassigned
		func(m *Machine) { m.Groups = [][]int{{0, 1}, {1}} }, // core 1 twice
		func(m *Machine) { m.Groups = [][]int{{0, 1, 5}} },   // out of range
		func(m *Machine) { m.Groups = [][]int{{}, {0, 1}} },  // empty group
		func(m *Machine) { m.NumSets = 0 },
		func(m *Machine) { m.MemLatency = 0 },
		func(m *Machine) { m.CtxSwitch = -1 },
		func(m *Machine) { m.MLPOverlap = 1 },
		func(m *Machine) { m.MemBandwidth = -1 },
		func(m *Machine) { m.Freq = &freq.Domain{} }, // empty ladder
		func(m *Machine) { m.Core = freq.CoreType{SPIFactor: -1} },
		// PLRU's tree bits fit 32 ways; wider must not reach cache.New.
		func(m *Machine) { m.Policy, m.Assoc = cache.PLRU, cache.MaxPLRUAssoc+1 },
		// More sets would let generated line IDs pass cache.MaxLineID.
		func(m *Machine) { m.NumSets = cache.MaxSets + 1 },
	}
	for i, mut := range cases {
		m := base()
		mut(m)
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: invalid machine accepted", i)
		}
	}
	// The same width is fine under the other policies, and PLRU at the limit.
	for _, mut := range []func(*Machine){
		func(m *Machine) { m.Policy, m.Assoc = cache.LRU, cache.MaxPLRUAssoc+1 },
		func(m *Machine) { m.Policy, m.Assoc = cache.Random, cache.MaxPLRUAssoc+1 },
		func(m *Machine) { m.Policy, m.Assoc = cache.PLRU, cache.MaxPLRUAssoc },
		func(m *Machine) { m.NumSets = cache.MaxSets },
	} {
		m := base()
		mut(m)
		if err := m.Validate(); err != nil {
			t.Fatalf("valid machine rejected: %v", err)
		}
	}
}

func TestMustValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustValidate accepted a coreless machine")
		}
	}()
	mustValidate(&Machine{Name: "broken"})
}

func TestOraclesDiffer(t *testing.T) {
	// The paper validates on machines with distinct nominal power; our
	// presets must not share oracle parameters.
	a := FourCoreServer().Oracle
	b := TwoCoreWorkstation().Oracle
	if a == (power.OracleParams{}) || a == b {
		t.Fatal("machine oracles should be distinct and non-zero")
	}
}

func TestL2MissCoefficientNegative(t *testing.T) {
	// Section 4.2 relies on c3 < 0; the ground truth must have that sign.
	for _, m := range []*Machine{FourCoreServer(), TwoCoreWorkstation(), TwoCoreLaptop()} {
		if m.Oracle.L2Miss >= 0 {
			t.Fatalf("%s: L2 miss energy should be negative", m.Name)
		}
	}
}

func TestSpeedOf(t *testing.T) {
	m := TwoCoreWorkstation()
	if m.SpeedOf(0) != 1 || m.SpeedOf(1) != 1 {
		t.Fatal("homogeneous machine should report unit speeds")
	}
	m.CoreSpeed = []float64{1.0, 0.5}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.SpeedOf(1) != 0.5 {
		t.Fatalf("SpeedOf(1) = %v", m.SpeedOf(1))
	}
	m.CoreSpeed = []float64{1.0}
	if err := m.Validate(); err == nil {
		t.Fatal("accepted speed list shorter than core count")
	}
	m.CoreSpeed = []float64{1.0, 0}
	if err := m.Validate(); err == nil {
		t.Fatal("accepted zero core speed")
	}
}
