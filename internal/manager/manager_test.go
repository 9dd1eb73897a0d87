package manager

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// Power models are expensive; share them across the tests.
var (
	pmMu    sync.Mutex
	pmCache = map[string]*core.PowerModel{}
)

// SharedPowerModel returns m's power model, trained once per test binary
// (the synthetic fit under -short: instant, deterministic, same shape).
// It is exported for the one-node fleet tests in package manager_test.
func SharedPowerModel(t *testing.T, m *machine.Machine) *core.PowerModel {
	t.Helper()
	pmMu.Lock()
	defer pmMu.Unlock()
	if pm, ok := pmCache[m.Name]; ok {
		return pm
	}
	var pm *core.PowerModel
	var err error
	if testing.Short() {
		pm, err = core.SyntheticPowerModel()
	} else {
		pm, err = core.TrainPowerModel(context.Background(), m, workload.ModelSet(), core.PowerTrainOptions{
			Warmup: 1, Duration: 3, Seed: 7, MicrobenchWindows: 6,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	pmCache[m.Name] = pm
	return pm
}

// truthSource is an instant FeatureSource serving analytic oracle features,
// with optional per-workload overrides (e.g. an invalid vector to force
// estimation failures).
type truthSource struct {
	m        *machine.Machine
	override map[string]*core.FeatureVector
}

func (s *truthSource) FeatureOf(_ context.Context, spec *workload.Spec) (*core.FeatureVector, error) {
	if f, ok := s.override[spec.Name]; ok {
		return f, nil
	}
	return core.TruthFeature(spec, s.m), nil
}

// testManager builds a manager over the truth oracle.
func testManager(t *testing.T, m *machine.Machine, opts Options) *Manager {
	t.Helper()
	if opts.Features == nil {
		opts.Features = &truthSource{m: m}
	}
	return New(m, SharedPowerModel(t, m), opts)
}

func TestPlaceAndRemove(t *testing.T) {
	ctx := context.Background()
	m := machine.FourCoreServer()
	mgr := testManager(t, m, Options{})
	name1, w1, err := mgr.PlaceAt(ctx, workload.ByName("mcf"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if w1 <= 0 {
		t.Fatalf("estimate %.2f W implausible", w1)
	}
	name2, w2, err := mgr.PlaceAt(ctx, workload.ByName("gzip"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if w2 <= w1 {
		t.Fatalf("adding a process reduced estimated power %.2f → %.2f", w1, w2)
	}
	if w, err := mgr.cm.EstimateAssignment(mgr.assignment()); err != nil || w != w2 {
		t.Fatalf("PlaceAt reported %v W, the assignment estimates %v W (err %v)", w2, w, err)
	}
	if err := mgr.Remove(name2); err != nil {
		t.Fatal(err)
	}
	w3, err := mgr.cm.EstimateAssignment(mgr.assignment())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w3-w1) > 1e-9 {
		t.Fatalf("removal did not restore the estimate: %.4f vs %.4f", w3, w1)
	}
	if err := mgr.Remove(name1); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Remove("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("removing a non-existent process: %v, want ErrUnknownProcess", err)
	}
}

// TestMaxPerCoreEnforced: PlaceAt refuses a core at its time-sharing cap
// and a core that does not exist.
func TestMaxPerCoreEnforced(t *testing.T) {
	ctx := context.Background()
	m := machine.TwoCoreWorkstation()
	mgr := testManager(t, m, Options{MaxPerCore: 1})
	for c := 0; c < m.NumCores; c++ {
		if _, _, err := mgr.PlaceAt(ctx, workload.ByName("gzip"), c); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < m.NumCores; c++ {
		if _, _, err := mgr.PlaceAt(ctx, workload.ByName("gzip"), c); !errors.Is(err, ErrMachineFull) {
			t.Fatalf("core %d past MaxPerCore: %v, want ErrMachineFull", c, err)
		}
	}
	if _, _, err := mgr.PlaceAt(ctx, workload.ByName("gzip"), m.NumCores); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("core %d: %v, want out of range", m.NumCores, err)
	}
	if n := len(mgr.Snapshot().res); n != m.NumCores {
		t.Fatalf("%d residents, want %d", n, m.NumCores)
	}
}

// TestPlaceErrorLeavesStateUntouched fails PlaceAt twice — once in the
// power estimate (an invalid feature vector), once at the fault-injection
// seam — and checks neither leaks anything: the residents and the
// instance-name counter are as they were.
func TestPlaceErrorLeavesStateUntouched(t *testing.T) {
	ctx := context.Background()
	m := machine.TwoCoreWorkstation()
	injected := errors.New("injected")
	mgr := testManager(t, m, Options{
		Features: &truthSource{m: m, override: map[string]*core.FeatureVector{
			"art": {}, // fails Validate inside the power estimate
		}},
		Intercept: func(site, key string) error {
			if site == "manager.place_at" && key == "vpr" {
				return injected
			}
			return nil
		},
	})
	if _, _, err := mgr.PlaceAt(ctx, workload.ByName("gzip"), 0); err != nil {
		t.Fatal(err)
	}
	before := mgr.Snapshot()
	if _, _, err := mgr.PlaceAt(ctx, workload.ByName("art"), 1); err == nil {
		t.Fatal("PlaceAt with an invalid feature vector succeeded")
	}
	if _, _, err := mgr.PlaceAt(ctx, workload.ByName("vpr"), 1); !errors.Is(err, injected) {
		t.Fatalf("PlaceAt at the seam: %v, want the injected fault", err)
	}
	if got := mgr.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed placements changed the state: %+v, want %+v", got, before)
	}
	name, _, err := mgr.PlaceAt(ctx, workload.ByName("mcf"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "mcf#2" {
		t.Fatalf("instance name %q after failed placements, want mcf#2 (nextID leaked)", name)
	}
}

// TestConcurrentPlaceIsSafe hammers one manager from several goroutines
// (run under -race in CI) — commits and snapshots — and checks the
// assignment stays consistent.
func TestConcurrentPlaceIsSafe(t *testing.T) {
	ctx := context.Background()
	m := machine.FourCoreServer()
	mgr := testManager(t, m, Options{})
	specs := []*workload.Spec{
		workload.ByName("mcf"),
		workload.ByName("gzip"),
		workload.ByName("art"),
		workload.ByName("vpr"),
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	for i, s := range specs {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _, err := mgr.PlaceAt(ctx, s, i%m.NumCores)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			mgr.Snapshot()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	names := map[string]bool{}
	for _, r := range mgr.Snapshot().res {
		names[r.Name] = true
	}
	if len(names) != len(specs) {
		t.Fatalf("%d distinct residents, want %d", len(names), len(specs))
	}
	if _, err := mgr.cm.EstimateAssignment(mgr.assignment()); err != nil {
		t.Fatal(err)
	}
}

// TestShortFeatureSourceDelegation pins the Options.Features contract:
// the manager consults the source on every placement and never layers its
// own memoization on top.
func TestShortFeatureSourceDelegation(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	src := &countingSource{inner: truthSource{m: m}}
	mgr := testManager(t, m, Options{Features: src})
	for i := 0; i < 3; i++ {
		if _, _, err := mgr.PlaceAt(context.Background(), workload.ByName("gzip"), i%m.NumCores); err != nil {
			t.Fatal(err)
		}
	}
	if src.calls != 3 {
		t.Fatalf("source consulted %d times, want 3 (caching is the source's job)", src.calls)
	}
}

// countingSource wraps the truth oracle and counts resolutions.
type countingSource struct {
	inner truthSource
	calls int
}

func (s *countingSource) FeatureOf(ctx context.Context, spec *workload.Spec) (*core.FeatureVector, error) {
	s.calls++
	return s.inner.FeatureOf(ctx, spec)
}

func TestPolicyString(t *testing.T) {
	if PowerAware.String() != "power-aware" || LeastLoaded.String() != "least-loaded" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}
