package manager_test

// The single-machine placement engine is a one-node fleet that decides
// with the Figure 1 estimate and commits through this package's PlaceAt,
// rolling back with Snapshot and Restore (the server's /v1/place). These
// tests pin the contracts the single-machine API keeps at this layer:
// which core an arrival gets, all-or-nothing batches that restore the
// instance-name counter, prompt cancellation, and profiling once per
// workload whatever the arrival order.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

// truth serves analytic oracle features instantly.
func truth(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
	return core.TruthFeature(spec, m), nil
}

// counting wraps a profiler and counts its sweeps.
func counting(profile fleet.ProfileFunc, runs *atomic.Int64) fleet.ProfileFunc {
	return func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
		runs.Add(1)
		return profile(ctx, m, spec, opts)
	}
}

// shortSweeps profiles with real stressmark sweeps, shortened.
func shortSweeps(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
	opts.Warmup, opts.Duration = 1, 2
	return core.Profile(ctx, m, spec, opts)
}

// oneNode builds a single-machine placement engine over m.
func oneNode(t *testing.T, m *machine.Machine, policy fleet.Policy, maxPerCore, workers int, profile fleet.ProfileFunc) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Nodes:         []fleet.NodeConfig{{Machine: m, Power: manager.SharedPowerModel(t, m), MaxPerCore: maxPerCore}},
		Policy:        policy,
		ScoreCacheCap: -1,
		Seed:          17,
		Workers:       workers,
		Profile:       profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// running lists the node's instance names per core.
func running(t *testing.T, f *fleet.Fleet) [][]string {
	t.Helper()
	st, err := f.State(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(st.Nodes[0].Cores))
	for c, cs := range st.Nodes[0].Cores {
		out[c] = cs.Procs
	}
	return out
}

// placeEach places specs one at a time.
func placeEach(t *testing.T, f *fleet.Fleet, specs []*workload.Spec) []fleet.Placed {
	t.Helper()
	var out []fleet.Placed
	for _, s := range specs {
		p, err := f.Place(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func specs(names ...string) []*workload.Spec {
	out := make([]*workload.Spec, len(names))
	for i, n := range names {
		out[i] = workload.ByName(n)
	}
	return out
}

func TestPowerAwareAvoidsHotPairing(t *testing.T) {
	// With mcf placed, art's core must be the minimum-estimate one, and
	// the reported watts that minimum.
	m := machine.FourCoreServer()
	f := oneNode(t, m, fleet.LeastWatts, 0, 1, truth)
	placeEach(t, f, specs("mcf"))
	asg := f.Inspect()[0].Assignment()
	p := placeEach(t, f, specs("art"))[0]
	cm := core.NewCombinedModel(m, manager.SharedPowerModel(t, m))
	for c := 0; c < m.NumCores; c++ {
		w, err := cm.EstimateAdditionContext(context.Background(), asg, core.TruthFeature(workload.ByName("art"), m), c)
		if err != nil {
			t.Fatal(err)
		}
		if w < p.Watts {
			t.Fatalf("core %d (%.3f W) beats chosen core %d (%.3f W)", c, w, p.Core, p.Watts)
		}
		if c == p.Core && w != p.Watts {
			t.Fatalf("chosen core %d estimates %v W, placement reported %v W", c, w, p.Watts)
		}
	}
}

func TestLeastLoadedBalances(t *testing.T) {
	f := oneNode(t, machine.TwoCoreWorkstation(), fleet.Spread, 0, 1, truth)
	placeEach(t, f, specs("gzip", "gzip", "gzip", "gzip"))
	if r := running(t, f); len(r[0]) != 2 || len(r[1]) != 2 {
		t.Fatalf("least-loaded imbalance: %v", r)
	}
}

// TestPlaceAllRollbackOnMachineFull drives a batch into a mid-batch full
// machine: the residents and the instance-name counter are restored, the
// cause stays testable with errors.Is, and the error says how many
// placements were undone.
func TestPlaceAllRollbackOnMachineFull(t *testing.T) {
	ctx := context.Background()
	f := oneNode(t, machine.TwoCoreWorkstation(), fleet.LeastWatts, 1, 1, truth)
	pre := placeEach(t, f, specs("gzip"))[0]
	before := running(t, f)

	// One free core, two arrivals: the second placement fails and the
	// first is undone.
	_, err := f.PlaceAll(ctx, specs("mcf", "art"))
	if !errors.Is(err, fleet.ErrFleetFull) || !errors.Is(err, fleet.ErrRolledBack) {
		t.Fatalf("error %v, want ErrFleetFull rolled back", err)
	}
	if !strings.Contains(err.Error(), "after 1 placement(s)") {
		t.Fatalf("error %q does not count the undone placement", err)
	}
	if got := running(t, f); !reflect.DeepEqual(got, before) {
		t.Fatalf("residents after rollback %v, want pre-call %v", got, before)
	}
	// The counter was restored too: the next instance gets the name it
	// would have had if the failed batch never happened.
	if _, err := f.Remove(ctx, "m0", pre.Name); err != nil {
		t.Fatal(err)
	}
	if p := placeEach(t, f, specs("mcf"))[0]; p.Name != "mcf#2" {
		t.Fatalf("instance name %q after rollback, want mcf#2 (nextID leaked)", p.Name)
	}
}

// TestPlaceAllNoRollbackWrapperWhenNothingAdmitted: a batch failing before
// any placement returns the bare cause; nothing was rolled back.
func TestPlaceAllNoRollbackWrapperWhenNothingAdmitted(t *testing.T) {
	f := oneNode(t, machine.TwoCoreWorkstation(), fleet.LeastWatts, 1, 1, truth)
	placeEach(t, f, specs("gzip", "mcf"))
	_, err := f.PlaceAll(context.Background(), specs("art"))
	if !errors.Is(err, fleet.ErrFleetFull) || errors.Is(err, fleet.ErrRolledBack) {
		t.Fatalf("error %v, want a bare ErrFleetFull", err)
	}
}

// TestPlaceAllCancelPrompt cancels a batch whose profiling blocks and
// checks it returns promptly with nothing admitted.
func TestPlaceAllCancelPrompt(t *testing.T) {
	block := func(ctx context.Context, _ *machine.Machine, _ *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	f := oneNode(t, machine.TwoCoreWorkstation(), fleet.LeastWatts, 0, 1, block)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := f.PlaceAll(ctx, specs("gzip", "mcf"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("PlaceAll took %v after cancellation, want prompt return", elapsed)
	}
	if n := len(f.Inspect()[0].Residents); n != 0 {
		t.Fatalf("%d residents after a cancelled batch", n)
	}
}

// batchMatchesSequential checks that a batch yields exactly the
// placements the same arrivals make one at a time.
func batchMatchesSequential(t *testing.T, serial, batch *fleet.Fleet, arrivals []*workload.Spec) {
	t.Helper()
	want := placeEach(t, serial, arrivals)
	got, err := batch.PlaceAll(context.Background(), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PlaceAll diverged from sequential Place:\ngot  %+v\nwant %+v", got, want)
	}
	if got, want := running(t, batch), running(t, serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("assignments diverged:\ngot  %v\nwant %v", got, want)
	}
}

func TestShortBatchMatchesSequential(t *testing.T) {
	m := machine.FourCoreServer()
	batchMatchesSequential(t,
		oneNode(t, m, fleet.LeastWatts, 0, 1, truth),
		oneNode(t, m, fleet.LeastWatts, 0, 1, truth),
		specs("mcf", "gzip", "mcf", "art", "equake"))
}

// TestPlaceAllMatchesSequentialPlace is the batch check against real
// profiles, the batch profiling its arrivals concurrently.
func TestPlaceAllMatchesSequentialPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles with real stressmark sweeps; fast variant: TestShortBatchMatchesSequential")
	}
	m := machine.FourCoreServer()
	batchMatchesSequential(t,
		oneNode(t, m, fleet.LeastWatts, 0, 1, shortSweeps),
		oneNode(t, m, fleet.LeastWatts, 0, 4, shortSweeps),
		specs("mcf", "gzip", "mcf", "art"))
}

// profiledOnce places vpr twice and checks the workload was profiled once
// and both instances share its vector.
func profiledOnce(t *testing.T, profile fleet.ProfileFunc) {
	t.Helper()
	var runs atomic.Int64
	f := oneNode(t, machine.TwoCoreWorkstation(), fleet.LeastWatts, 0, 1, counting(profile, &runs))
	placeEach(t, f, specs("vpr", "vpr"))
	res := f.Inspect()[0].Residents
	if runs.Load() != 1 || res[0].Feature != res[1].Feature {
		t.Fatalf("%d profiling runs for two vpr arrivals, shared vector %v; want 1, true", runs.Load(), res[0].Feature == res[1].Feature)
	}
}

func TestProfilingIsMemoized(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles with real stressmark sweeps; fast variant: TestShortProfilerMemoized")
	}
	profiledOnce(t, shortSweeps)
}

func TestShortProfilerMemoized(t *testing.T) {
	profiledOnce(t, truth)
}

// TestProfileSeedOrderIndependent: a workload's feature vector does not
// depend on how many others were profiled before it.
func TestProfileSeedOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles with real stressmark sweeps")
	}
	m := machine.FourCoreServer()
	gzip := func(f *fleet.Fleet) *core.FeatureVector {
		for _, r := range f.Inspect()[0].Residents {
			if r.Spec.Name == "gzip" {
				return r.Feature
			}
		}
		t.Fatal("gzip not resident")
		return nil
	}
	a := oneNode(t, m, fleet.LeastWatts, 0, 1, shortSweeps)
	placeEach(t, a, specs("gzip"))
	b := oneNode(t, m, fleet.LeastWatts, 0, 1, shortSweeps)
	placeEach(t, b, specs("mcf", "art", "gzip"))
	fa, fb := gzip(a), gzip(b)
	if !reflect.DeepEqual(fa.MPACurve, fb.MPACurve) || fa.Alpha != fb.Alpha || fa.Beta != fb.Beta {
		t.Fatalf("profile of gzip depends on arrival order:\n%v (α=%v β=%v)\nvs\n%v (α=%v β=%v)",
			fa.MPACurve, fa.Alpha, fa.Beta, fb.MPACurve, fb.Alpha, fb.Beta)
	}
}
