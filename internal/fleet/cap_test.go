package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// snapshotRows returns the ledger's rows by node name.
func (l *capLedger) snapshotRows() map[string]float64 {
	names, rows := l.copyRows(nil, nil)
	out := make(map[string]float64, len(names))
	for i, k := range names {
		out[k] = rows[i]
	}
	return out
}

// TestCapLedgerAtomicity pins the ledger's unit contract: usage is the
// sorted-row sum (a pure function of the rows), tryReserve is
// check-and-write under one lock, and a failed reservation leaves the
// rows untouched.
func TestCapLedgerAtomicity(t *testing.T) {
	l := newCapLedger()
	l.setNode("b", 10)
	l.setNode("a", 5)
	if got := l.usage(); got != 15 {
		t.Fatalf("usage = %v, want 15", got)
	}
	if got := l.usedExcept("b"); got != 5 {
		t.Fatalf("usedExcept(b) = %v, want 5", got)
	}

	// Uncapped (watts == 0): every reservation is admitted, rows tracked.
	if !l.tryReserve("a", 100) {
		t.Fatal("uncapped tryReserve rejected")
	}
	l.setNode("a", 5)

	l.setCap(16)
	if !l.tryReserve("a", 6) { // 10 + 6 = 16 fits exactly
		t.Fatal("tryReserve rejected a fitting reservation")
	}
	if l.tryReserve("b", 11) { // 6 + 11 = 17 > 16
		t.Fatal("tryReserve admitted an over-budget reservation")
	}
	if got := l.nodeWatts("b"); got != 10 {
		t.Fatalf("failed reservation mutated the row: %v, want 10", got)
	}

	// Replacing a node's own row is measured against the total WITHOUT its
	// old row: b can grow to the remaining headroom even though usage+w
	// would overflow naively.
	if !l.tryReserve("b", 10) {
		t.Fatal("tryReserve rejected a same-size replacement")
	}

	// restoreRows is a full overwrite.
	l.restoreRows([]string{"x"}, []float64{1})
	if got := l.usage(); got != 1 {
		t.Fatalf("restoreRows usage = %v, want 1", got)
	}
}

// TestCapLedgerSumOrder pins the name-ordered rows against the ledger they
// replaced — a map, its keys sorted and summed on every call: whatever
// order rows are inserted, overwritten and restored in, every sum is
// bit-equal to the sorted-name sum, and reading one costs no allocation.
func TestCapLedgerSumOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, rows := newCapLedger(), map[string]float64{}
		check := func(step string) {
			t.Helper()
			names := make([]string, 0, len(rows))
			for k := range rows {
				names = append(names, k)
			}
			sort.Strings(names)
			want := 0.0
			for _, k := range names {
				want += rows[k]
			}
			if got := l.usage(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, %s: usage = %v, sorted-name sum = %v", seed, step, got, want)
			}
			for _, k := range append(names, "absent") {
				if got, want := l.usedExcept(k), want-rows[k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d, %s: usedExcept(%s) = %v, want %v", seed, step, k, got, want)
				}
				if got := l.nodeWatts(k); got != rows[k] {
					t.Fatalf("seed %d, %s: nodeWatts(%s) = %v, want %v", seed, step, k, got, rows[k])
				}
			}
		}
		for i := 0; i < 60; i++ {
			// 24 names, so most writes after the first few are overwrites.
			name, w := fmt.Sprintf("m%d", rng.Intn(24)), 200*rng.Float64()
			if rng.Intn(2) == 0 {
				l.setNode(name, w)
			} else if !l.tryReserve(name, w) {
				t.Fatalf("seed %d: uncapped tryReserve rejected", seed)
			}
			rows[name] = w
			check("write")
		}
		names, ws := l.copyRows(nil, nil)
		l.restoreRows([]string{"x"}, []float64{1})
		l.restoreRows(names, ws)
		check("restore")
	}

	l := newCapLedger()
	for i := 0; i < 24; i++ {
		l.setNode(fmt.Sprintf("m%d", i), float64(i))
	}
	if n := testing.AllocsPerRun(100, func() { l.usedExcept("m7") }); n != 0 {
		t.Errorf("usedExcept allocates %v objects per call, want 0", n)
	}
}

// TestCapAdmissionGate pins the admission contract end to end: with the
// budget set exactly to the current draw, the next arrival (which always
// adds dynamic watts) is rejected as ErrFleetFull with the fleet
// bit-identically untouched, and clearing the cap re-admits it.
func TestCapAdmissionGate(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, nil)
	if _, err := f.PlaceAll(ctx, []*workload.Spec{
		workload.ByName("gzip"), workload.ByName("mcf"),
	}); err != nil {
		t.Fatal(err)
	}
	// Engage tracking first (an uncapped fleet has no ledger to read),
	// then pin the budget to the measured draw.
	if err := f.SetPowerCap(ctx, 1e9); err != nil {
		t.Fatal(err)
	}
	usage := f.CapUsage()
	if err := f.SetPowerCap(ctx, usage); err != nil {
		t.Fatal(err)
	}
	pre, err := f.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	preJSON, _ := json.Marshal(pre)

	if _, err := f.Place(ctx, workload.ByName("art")); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("over-budget arrival: got %v, want ErrFleetFull", err)
	}
	if got := f.CapUsage(); math.Float64bits(got) != math.Float64bits(usage) {
		t.Fatalf("rejected arrival moved the ledger: %v -> %v", usage, got)
	}
	post, err := f.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if postJSON, _ := json.Marshal(post); string(preJSON) != string(postJSON) {
		t.Fatalf("rejected arrival mutated fleet state:\n pre %s\npost %s", preJSON, postJSON)
	}

	// Clearing the budget (watts == 0) disables the gate.
	if err := f.SetPowerCap(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Place(ctx, workload.ByName("art")); err != nil {
		t.Fatalf("uncapped arrival rejected: %v", err)
	}
}

// TestEnforceCapDownclocks drives a loaded fleet over budget and checks
// the enforcement pass: watts shed to within the cap, down-clocks
// reported, some node left below base, and every ledger row re-anchored
// on the canonical live estimate (a second SetPowerCap resync must not
// move a single bit).
func TestEnforceCapDownclocks(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, nil)
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		t.Fatal(err)
	}
	if err := f.SetPowerCap(ctx, 1e9); err != nil { // engage tracking
		t.Fatal(err)
	}
	loaded := f.CapUsage()
	static := 0.0
	for _, n := range f.nodes {
		static += staticWatts(n)
	}
	if loaded <= static {
		t.Fatalf("loaded draw %v not above the static floor %v", loaded, static)
	}
	// A budget inside the dynamic band but above the ladder floor (the
	// lowest rung keeps ~43% of dynamic watts) is reachable by shedding
	// dynamic watts alone.
	budget := static + (loaded-static)*0.6
	if err := f.SetPowerCap(ctx, budget); err != nil {
		t.Fatal(err)
	}
	rep, err := f.EnforceCap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied {
		t.Fatalf("enforcement unsatisfied: %+v", rep)
	}
	if rep.WattsAfter > budget {
		t.Fatalf("WattsAfter %v above the %v budget", rep.WattsAfter, budget)
	}
	if rep.Downclocks+rep.Migrations == 0 {
		t.Fatal("enforcement shed watts without reporting any action")
	}
	below := 0
	for name, ix := range f.FreqStates() {
		n := f.nodeByNameLocked(name)
		if ix < n.cfg.Machine.Freq.BaseIx() {
			below++
		}
		if ix < 0 || ix >= n.cfg.Machine.Freq.NumStates() {
			t.Fatalf("node %s rung %d outside its ladder", name, ix)
		}
	}
	if rep.Downclocks > 0 && below == 0 {
		t.Fatal("down-clocks reported but every node still at base")
	}

	// Canonical-row invariant: a fresh full resync (SetPowerCap with the
	// same budget) must reproduce the post-enforcement ledger bit for bit.
	before := f.capL.snapshotRows()
	if err := f.SetPowerCap(ctx, budget); err != nil {
		t.Fatal(err)
	}
	after := f.capL.snapshotRows()
	for name, w := range before {
		if math.Float64bits(after[name]) != math.Float64bits(w) {
			t.Fatalf("row %s not canonical: enforcement left %v, resync computes %v", name, w, after[name])
		}
	}
}

// TestEnforceCapUnsatisfiable pins the Satisfied=false contract: a budget
// below the fleet's static floor cannot be met by any rung or migration,
// so enforcement exhausts its actions and reports honestly.
func TestEnforceCapUnsatisfiable(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, nil)
	if _, err := f.Place(ctx, workload.ByName("gzip")); err != nil {
		t.Fatal(err)
	}
	if err := f.SetPowerCap(ctx, 1.0); err != nil { // far below the idle floor
		t.Fatal(err)
	}
	rep, err := f.EnforceCap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Satisfied {
		t.Fatalf("1 W budget reported satisfiable: %+v", rep)
	}
	if rep.WattsAfter <= rep.Cap {
		t.Fatalf("unsatisfied pass claims WattsAfter %v within cap %v", rep.WattsAfter, rep.Cap)
	}
}

// TestEnforceCapRollback forces the migration path (base-only ladders, so
// no down-clock exists) and fails it at the manager.place_at injection
// site: the transaction must restore every manager, rung, and ledger row
// and leave the serialized fleet state byte-identical.
func TestEnforceCapRollback(t *testing.T) {
	ctx := context.Background()
	pm := testPower(t)
	boom := errors.New("injected placement failure")
	var arm bool
	build := func() []NodeConfig {
		// The loaded source has a base-only ladder (no down-clock exists)
		// and the empty target sits at its ladder floor, where dynamic
		// watts cost ~43% of base — so migrating a resident across is the
		// only action that sheds watts, and enforcement must take it.
		src := machine.TwoCoreWorkstation()
		src.Freq = nil
		return []NodeConfig{
			{Machine: src, Power: pm, MaxPerCore: 2},
			{Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2},
		}
	}
	f, err := New(Config{
		Nodes:    build(),
		Policy:   LeastDegradation,
		QueueCap: 4,
		Seed:     1,
		Workers:  1,
		Profile:  oracle(nil, 0),
		Intercept: func(site, key string) error {
			if arm && site == "manager.place_at" {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One lone resident on m0: migrating it to the floor-clocked twin
	// keeps its unscaled draw but multiplies the dynamic part by ~0.43,
	// so the move sheds watts (a contended source would not — each
	// squeezed resident's draw is already below the floor's fraction of
	// its uncontended draw).
	if _, err := f.FailNode("m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Place(ctx, workload.ByName("gzip")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RestoreNode(ctx, "m1"); err != nil {
		t.Fatal(err)
	}
	// Park the empty target at its ladder floor (an empty node sheds
	// nothing by down-clocking, so enforcement would never get it there
	// itself).
	f.mu.Lock()
	f.setFreqLocked(f.nodes[1], 0)
	f.mu.Unlock()
	if err := f.SetPowerCap(ctx, 1e9); err != nil {
		t.Fatal(err)
	}
	usage := f.CapUsage()
	static := 0.0
	for _, n := range f.nodes {
		static += staticWatts(n)
	}
	if err := f.SetPowerCap(ctx, static+(usage-static)*0.5); err != nil {
		t.Fatal(err)
	}

	pre, err := f.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	preJSON, _ := json.Marshal(pre)
	preRoll := f.rollbacks.Value()

	arm = true
	_, err = f.EnforceCap(ctx)
	arm = false
	if err == nil {
		t.Fatal("no migration candidate shed watts; rollback path not exercised")
	}
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("enforcement error = %v, want rolled-back wrap of the injected failure", err)
	}
	if got := f.rollbacks.Value(); got != preRoll+1 {
		t.Fatalf("rollback counter %d, want %d", got, preRoll+1)
	}
	post, err := f.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if postJSON, _ := json.Marshal(post); string(preJSON) != string(postJSON) {
		t.Fatalf("failed enforcement mutated fleet state:\n pre %s\npost %s", preJSON, postJSON)
	}
}

// TestFailRestoreCapRows pins the accounting on node loss: a down node's
// row drops to zero (its draw is gone, its budget share freed), and a
// restored node re-enters at exactly the constant idle floor.
func TestFailRestoreCapRows(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, func(cfg *Config) { cfg.PowerCap = 1e9 })
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:4]); err != nil {
		t.Fatal(err)
	}
	name := f.NodeNames()[0]
	if w := f.capL.nodeWatts(name); w <= 0 {
		t.Fatalf("live node row %v, want positive", w)
	}
	if _, err := f.FailNode(name); err != nil {
		t.Fatal(err)
	}
	if w := f.capL.nodeWatts(name); w != 0 {
		t.Fatalf("down node row %v, want 0", w)
	}
	if _, err := f.RestoreNode(ctx, name); err != nil {
		t.Fatal(err)
	}
	n := f.nodeByNameLocked(name)
	if w := f.capL.nodeWatts(name); math.Float64bits(w) != math.Float64bits(staticWatts(n)) {
		t.Fatalf("restored node row %v, want the %v idle floor", w, staticWatts(n))
	}
}

// TestRebalanceCapRejection pins the rebalance budget gate: when the best
// move's post-move fleet draw exceeds the cap, Rebalance refuses it as
// ErrNoImprovement with the budget spelled out, and moves nothing.
func TestRebalanceCapRejection(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, nil)
	// Pile load onto one node so an improving move exists.
	for _, name := range f.NodeNames()[1:] {
		if _, err := f.FailNode(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.PlaceAll(ctx, sixteenSpecs()[:4]); err != nil {
		t.Fatal(err)
	}
	for _, name := range f.NodeNames()[1:] {
		if _, err := f.RestoreNode(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if mv, err := f.Rebalance(ctx, 0); err != nil {
		t.Fatalf("uncapped rebalance found no move: %v", err)
	} else if mv.Name == "" {
		t.Fatal("uncapped rebalance returned an empty move")
	}

	// Any further move's post-move draw (~the idle floor) dwarfs a 1 W
	// budget, so the gate must fire.
	if err := f.SetPowerCap(ctx, 1.0); err != nil {
		t.Fatal(err)
	}
	pre := f.CapUsage()
	_, err := f.Rebalance(ctx, 0)
	if !errors.Is(err, manager.ErrNoImprovement) || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("capped rebalance: got %v, want cap-gated ErrNoImprovement", err)
	}
	if got := f.CapUsage(); math.Float64bits(got) != math.Float64bits(pre) {
		t.Fatalf("rejected rebalance moved the ledger: %v -> %v", pre, got)
	}
}

// TestFreqWALRecovery pins the rung journal: enforcement down-clocks are
// recorded as EvFreq, and a fresh fleet recovered from the log reports
// the same rungs and byte-identical state.
func TestFreqWALRecovery(t *testing.T) {
	ctx := context.Background()
	shadow := &wal.State{}
	journal := func(events []wal.Event) {
		for _, e := range events {
			if err := shadow.Apply(e); err != nil {
				t.Fatalf("shadow apply: %v", err)
			}
		}
	}
	mk := func(j func([]wal.Event)) *Fleet {
		return testFleet(t, LeastDegradation, func(cfg *Config) {
			cfg.Journal = j
			cfg.PowerCap = 1e9
		})
	}
	f1 := mk(journal)
	if _, err := f1.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		t.Fatal(err)
	}
	static := 0.0
	for _, n := range f1.nodes {
		static += staticWatts(n)
	}
	budget := static + (f1.CapUsage()-static)*0.25
	if err := f1.SetPowerCap(ctx, budget); err != nil {
		t.Fatal(err)
	}
	rep, err := f1.EnforceCap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Downclocks == 0 {
		t.Fatalf("scenario produced no down-clocks to journal: %+v", rep)
	}
	if len(shadow.Freq) == 0 {
		t.Fatal("EnforceCap down-clocked but journaled no EvFreq")
	}

	f2 := mk(nil)
	if err := f2.SetPowerCap(ctx, budget); err != nil {
		t.Fatal(err)
	}
	if err := f2.Recover(ctx, shadow); err != nil {
		t.Fatalf("recover: %v", err)
	}
	s1, s2 := f1.FreqStates(), f2.FreqStates()
	for name, ix := range s1 {
		if s2[name] != ix {
			t.Fatalf("node %s recovered at rung %d, want %d", name, s2[name], ix)
		}
	}
	pre, err := f1.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	post, err := f2.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	preJSON, _ := json.Marshal(pre)
	postJSON, _ := json.Marshal(post)
	if string(preJSON) != string(postJSON) {
		t.Fatalf("recovered state diverged:\n pre %s\npost %s", preJSON, postJSON)
	}

	// Ladder validation: a recorded rung outside the machine's ladder is a
	// corrupt log, refused with the node named.
	f3 := mk(nil)
	bad := &wal.State{Freq: map[string]int{"m0": 99}}
	if err := f3.Recover(ctx, bad); err == nil || !strings.Contains(err.Error(), "ladder") {
		t.Fatalf("recover with rung 99: got %v, want ladder validation error", err)
	}
}

// TestShardedCapRace races concurrent placements on a Sharded fleet
// against a budget with room for only some of them: the shared ledger's
// tryReserve must serialize admission so the final draw never exceeds the
// cap, and every loser is an ErrFleetFull. Run under -race this also
// exercises the ledger lock discipline across shards.
func TestShardedCapRace(t *testing.T) {
	ctx := context.Background()
	pm := testPower(t)
	mkCfg := func(cap float64) Config {
		var nodes []NodeConfig
		for i := 0; i < 4; i++ {
			nodes = append(nodes, NodeConfig{
				Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2,
			})
		}
		return Config{
			Nodes: nodes, Policy: LeastDegradation, QueueCap: 0,
			Seed: 1, Workers: 2, Profile: oracle(nil, 0), PowerCap: cap,
		}
	}
	// Calibrate on a throwaway fleet: the idle floor plus roughly half the
	// draw the full batch would add.
	probe, err := NewSharded(mkCfg(1e9), 2)
	if err != nil {
		t.Fatal(err)
	}
	static := probe.CapUsage()
	specs := sixteenSpecs()[:8]
	if _, err := probe.PlaceAll(ctx, specs); err != nil {
		t.Fatal(err)
	}
	budget := static + (probe.CapUsage()-static)*0.5

	s, err := NewSharded(mkCfg(budget), 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec *workload.Spec) {
			defer wg.Done()
			_, errs[i] = s.Place(ctx, spec)
		}(i, spec)
	}
	wg.Wait()
	placed, rejected := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			placed++
		case errors.Is(err, ErrFleetFull):
			rejected++
		default:
			t.Fatalf("placement %d: unexpected error %v", i, err)
		}
	}
	if placed == 0 {
		t.Fatal("budget admitted nothing; calibration off")
	}
	if rejected == 0 {
		t.Fatal("budget rejected nothing; race never contended the headroom")
	}
	if usage, cap := s.CapUsage(), s.PowerCap(); usage > cap {
		t.Fatalf("over-admission: draw %v exceeds the %v budget (placed %d)", usage, cap, placed)
	}
}

// TestSimCapEvents pins the simulator's cap wiring: a mid-run CapEvent
// populates the report's energy/enforcement fields, the run is
// byte-identical across worker counts, and a scenario without cap fields
// reports none (the legacy golden surface).
func TestSimCapEvents(t *testing.T) {
	sc := &Scenario{
		Seed: 7,
		Machines: []ScenarioMachine{
			{Preset: "workstation"}, {Preset: "workstation"}, {Preset: "laptop", MaxPerCore: 2},
		},
		Policies:         []string{"least-degradation", "cap-aware"},
		Processes:        16,
		Workloads:        []string{"gzip", "mcf", "art"},
		MeanInterarrival: 0.8,
		MeanLifetime:     10,
		QueueCap:         4,
		CapEvents:        []CapEvent{{Time: 5, Watts: 30.002}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, w := range []int{1, 4} {
		rep, err := NewSim(sc, w).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := renderReport(t, rep)
		if ref == nil {
			ref = got
		} else if string(got) != string(ref) {
			t.Fatalf("workers=%d cap-event report diverged from workers=1", w)
		}
		for _, pr := range rep.Policies {
			if pr.EnergyJ <= 0 {
				t.Fatalf("%s: no energy integrated", pr.Policy)
			}
		}
	}

	// The cap-free twin must keep the legacy surface: no energy, no
	// enforcement counters (their omitempty keeps old goldens byte-stable).
	legacy := *sc
	legacy.CapEvents = nil
	rep, err := NewSim(&legacy, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.Policies {
		if pr.EnergyJ != 0 || pr.CapDownclocks != 0 || pr.CapMigrations != 0 || pr.CapUnsatisfied != 0 {
			t.Fatalf("%s: cap fields populated on a cap-free scenario: %+v", pr.Policy, pr)
		}
	}
}

// TestShardedCapLifecycle walks the sharded tier's budget surface the
// way an operator would: tighten the cap mid-flight, force an
// enforcement pass, read the rungs back, then clear the budget. The
// pass runs under every shard lock as one fleet-wide enforcement; its
// report must account every down-clock and land the shared ledger under
// the budget.
func TestShardedCapLifecycle(t *testing.T) {
	ctx := context.Background()
	pm := testPower(t)
	var nodes []NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, NodeConfig{
			Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2,
		})
	}
	s, err := NewSharded(Config{
		Nodes: nodes, Policy: LeastDegradation, QueueCap: 0,
		Seed: 1, Workers: 2, Profile: oracle(nil, 0), PowerCap: 1e9,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPowerCap(ctx, -1); err == nil {
		t.Fatal("negative cap accepted")
	}
	static := s.CapUsage()
	if _, err := s.PlaceAll(ctx, sixteenSpecs()[:8]); err != nil {
		t.Fatal(err)
	}
	loaded := s.CapUsage()

	// A cap between the loaded draw and what the ladder floor can reach
	// (the lowest rung keeps ~43% of dynamic watts, so 0.6 is reachable).
	budget := static + (loaded-static)*0.6
	if err := s.SetPowerCap(ctx, budget); err != nil {
		t.Fatal(err)
	}
	if got := s.PowerCap(); got != budget {
		t.Fatalf("PowerCap() = %v, want %v", got, budget)
	}
	rep, err := s.EnforceCap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied || rep.WattsAfter > budget {
		t.Fatalf("enforcement left %v W against a %v W budget: %+v", rep.WattsAfter, budget, rep)
	}
	if rep.Downclocks == 0 {
		t.Fatalf("enforcement shed watts without down-clocks: %+v", rep)
	}
	states := s.FreqStates()
	if len(states) != len(nodes) {
		t.Fatalf("FreqStates reported %d nodes, want %d", len(states), len(nodes))
	}
	lowered := 0
	for name, ix := range states {
		if ix < 0 || ix >= machine.TwoCoreWorkstation().Freq.NumStates() {
			t.Fatalf("node %s at rung %d outside its ladder", name, ix)
		}
		if ix < machine.TwoCoreWorkstation().Freq.BaseIx() {
			lowered++
		}
	}
	if lowered == 0 {
		t.Fatal("no node below base frequency after a down-clocking pass")
	}
	if usage := s.CapUsage(); usage > budget {
		t.Fatalf("ledger draw %v exceeds the %v budget post-enforcement", usage, budget)
	}

	// An already-satisfied pass is a no-op report, and clearing the cap
	// re-opens admission without touching rungs.
	again, err := s.EnforceCap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Satisfied || again.Downclocks != 0 || again.Migrations != 0 {
		t.Fatalf("second pass was not a no-op: %+v", again)
	}
	if err := s.SetPowerCap(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if s.PowerCap() != 0 {
		t.Fatal("cap not cleared")
	}
	uncapped, err := s.EnforceCap(ctx)
	if err != nil || uncapped.Cap != 0 || !uncapped.Satisfied {
		t.Fatalf("uncapped enforcement: %+v, %v", uncapped, err)
	}
}
