package chaos

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

// newTestFleet builds a deterministic fleet over the analytic truth
// oracle: no real profiling, no wall time, so every test replays exactly.
func newTestFleet(t *testing.T, intercept func(site, key string) error) *fleet.Fleet {
	t.Helper()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatalf("SyntheticPowerModel: %v", err)
	}
	ws, err := cli.MachineByName("workstation")
	if err != nil {
		t.Fatalf("MachineByName: %v", err)
	}
	f, err := fleet.New(fleet.Config{
		Nodes: []fleet.NodeConfig{
			{Name: "m0", Machine: ws, Power: pm, MaxPerCore: 2},
			{Name: "m1", Machine: ws, Power: pm, MaxPerCore: 2},
		},
		Policy:    fleet.LeastDegradation,
		QueueCap:  4,
		Intercept: intercept,
		Profile: func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	return f
}

func mustPlace(t *testing.T, f *fleet.Fleet, name string) fleet.Placed {
	t.Helper()
	p, err := f.Place(context.Background(), workload.ByName(name))
	if err != nil {
		t.Fatalf("Place(%s): %v", name, err)
	}
	return p
}

func requireClean(t *testing.T, f *fleet.Fleet) {
	t.Helper()
	c := &Checker{}
	if vs := c.CheckFleet(context.Background(), f); len(vs) > 0 {
		t.Fatalf("invariant violations on healthy fleet: %v", vs)
	}
}

func TestCheckFleetHealthyStatesClean(t *testing.T) {
	f := newTestFleet(t, nil)
	requireClean(t, f) // empty fleet
	for _, w := range []string{"gzip", "mcf", "art", "gzip", "equake", "mcf"} {
		mustPlace(t, f, w)
		requireClean(t, f) // after every mutation
	}
	ins := f.Inspect()
	if Terms(ins) != 6 {
		t.Fatalf("Terms = %d, want 6", Terms(ins))
	}
}

func TestCheckNodeDetectsViolations(t *testing.T) {
	ws, err := cli.MachineByName("workstation")
	if err != nil {
		t.Fatal(err)
	}
	feat := core.TruthFeature(workload.ByName("gzip"), ws)
	ctx := context.Background()
	c := &Checker{}

	cases := []struct {
		name string
		ni   fleet.NodeInspection
		want string
	}{
		{
			name: "down node holding residents",
			ni: fleet.NodeInspection{
				Name: "bad", Machine: ws, Down: true,
				Residents: []manager.Resident{{Name: "gzip#1", Core: 0, Feature: feat}},
			},
			want: "capacity/down-node-empty",
		},
		{
			name: "core out of range",
			ni: fleet.NodeInspection{
				Name: "bad", Machine: ws,
				Residents: []manager.Resident{{Name: "gzip#1", Core: ws.NumCores, Feature: feat}},
			},
			want: "capacity/core-range",
		},
		{
			name: "per-core cap exceeded",
			ni: fleet.NodeInspection{
				Name: "bad", Machine: ws, MaxPerCore: 1,
				Residents: []manager.Resident{
					{Name: "gzip#1", Core: 0, Feature: feat},
					{Name: "gzip#2", Core: 0, Feature: feat},
				},
			},
			want: "capacity/max-per-core",
		},
		{
			name: "missing feature vector",
			ni: fleet.NodeInspection{
				Name: "bad", Machine: ws,
				Residents: []manager.Resident{{Name: "gzip#1", Core: 0}},
			},
			want: "capacity/feature",
		},
	}
	for _, tc := range cases {
		vs := c.CheckNode(ctx, tc.ni)
		found := false
		for _, v := range vs {
			if v.Invariant == tc.want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: violations %v missing %q", tc.name, vs, tc.want)
		}
	}
}

func TestInjectedPlaceFaultLeavesFleetUnchanged(t *testing.T) {
	// Fault the commit (manager.place_at) after scoring succeeded: the
	// error must surface, nothing may mutate, and a retry must succeed.
	// Occurrence 2: the first consult is the setup placement below.
	script := NewScript().Fail("manager.place_at", "", 2)
	f := newTestFleet(t, script.Intercept)
	mustPlace(t, f, "gzip")
	before := f.Inspect()

	_, err := f.Place(context.Background(), workload.ByName("mcf"))
	if !IsFault(err) {
		t.Fatalf("Place under injection: %v, want injected fault", err)
	}
	if !reflect.DeepEqual(before, f.Inspect()) {
		t.Fatal("injected place fault mutated fleet state")
	}
	requireClean(t, f)
	mustPlace(t, f, "mcf") // seam disarmed; retry commits
	requireClean(t, f)
}

func TestInjectedScoreFaultLeavesFleetUnchanged(t *testing.T) {
	script := NewScript().Fail("fleet.score", "", 1)
	f := newTestFleet(t, script.Intercept)
	before := f.Inspect()
	_, err := f.Place(context.Background(), workload.ByName("gzip"))
	if !IsFault(err) {
		t.Fatalf("Place under score injection: %v, want injected fault", err)
	}
	if !reflect.DeepEqual(before, f.Inspect()) {
		t.Fatal("injected score fault mutated fleet state")
	}
	requireClean(t, f)
}

func TestInjectedProfileFaultIsNotCached(t *testing.T) {
	// A profiling failure must poison nothing: the next resolve of the
	// same (machine, workload) pair re-profiles and succeeds.
	script := NewScript().Fail("fleet.profile", "", 1)
	f := newTestFleet(t, script.Intercept)
	_, err := f.Place(context.Background(), workload.ByName("gzip"))
	if !IsFault(err) {
		t.Fatalf("Place under profile injection: %v, want injected fault", err)
	}
	requireClean(t, f)
	mustPlace(t, f, "gzip")
	requireClean(t, f)
}

func TestInjectedRebalanceFaultLeavesFleetUnchanged(t *testing.T) {
	script := NewScript().Fail("fleet.rebalance", "", 1)
	f := newTestFleet(t, script.Intercept)
	for _, w := range []string{"gzip", "mcf", "art", "equake"} {
		mustPlace(t, f, w)
	}
	before := f.Inspect()
	_, err := f.Rebalance(context.Background(), 0)
	if !IsFault(err) {
		t.Fatalf("Rebalance under injection: %v, want injected fault", err)
	}
	if !reflect.DeepEqual(before, f.Inspect()) {
		t.Fatal("injected rebalance fault mutated fleet state")
	}
	requireClean(t, f)
}

func TestFailNodeEvictsAndRestoreRecovers(t *testing.T) {
	f := newTestFleet(t, nil)
	ctx := context.Background()
	var onM0 int
	for _, w := range []string{"gzip", "mcf", "art", "equake", "swim", "ammp"} {
		p := mustPlace(t, f, w)
		if p.Node == "m0" {
			onM0++
		}
	}
	requireClean(t, f)
	evicted, err := f.FailNode("m0")
	if err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	if len(evicted) != onM0 {
		t.Fatalf("evicted %d residents, want %d", len(evicted), onM0)
	}
	requireClean(t, f)
	for _, ni := range f.Inspect() {
		if ni.Name == "m0" && (!ni.Down || len(ni.Residents) != 0) {
			t.Fatalf("m0 after FailNode: down=%v residents=%d", ni.Down, len(ni.Residents))
		}
	}
	// Placement while down must avoid the dead machine.
	p := mustPlace(t, f, "gzip")
	if p.Node == "m0" {
		t.Fatal("placed onto a down node")
	}
	requireClean(t, f)
	if _, err := f.FailNode("m0"); err == nil {
		t.Fatal("FailNode twice succeeded")
	}
	if _, err := f.RestoreNode(ctx, "m0"); err != nil {
		t.Fatalf("RestoreNode: %v", err)
	}
	requireClean(t, f)
	if _, err := f.RestoreNode(ctx, "m0"); err == nil {
		t.Fatal("RestoreNode of an up node succeeded")
	}
}

func TestTermsFixedUnderRebalance(t *testing.T) {
	// Eq. 10 fixedness: a cross-machine migration moves an expectation
	// term between machines but never creates or destroys one.
	f := newTestFleet(t, nil)
	ctx := context.Background()
	for _, w := range []string{"mcf", "mcf", "art", "gzip", "swim"} {
		mustPlace(t, f, w)
	}
	before := Terms(f.Inspect())
	_, err := f.Rebalance(ctx, 0)
	if err != nil && !errors.Is(err, manager.ErrNoImprovement) {
		t.Fatalf("Rebalance: %v", err)
	}
	if after := Terms(f.Inspect()); after != before {
		t.Fatalf("terms changed across rebalance: %d -> %d", before, after)
	}
	requireClean(t, f)
}

func TestCombinationsMatchAssignmentShape(t *testing.T) {
	srv, err := cli.MachineByName("server")
	if err != nil {
		t.Fatal(err)
	}
	feat := core.TruthFeature(workload.ByName("gzip"), srv)
	ni := fleet.NodeInspection{
		Name: "n", Machine: srv,
		Residents: []manager.Resident{
			// Group {0,1}: 2 choices on core 0 × 1 on core 1 = 2 combos.
			{Name: "a", Core: 0, Feature: feat},
			{Name: "b", Core: 0, Feature: feat},
			{Name: "c", Core: 1, Feature: feat},
			// Group {2,3}: core 3 alone = 1 combo.
			{Name: "d", Core: 3, Feature: feat},
		},
	}
	if got := Combinations(ni); got != 3 {
		t.Fatalf("Combinations = %d, want 3", got)
	}
}
