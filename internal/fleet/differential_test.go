// Differential replay suite: the proof that "faster" means "byte
// identical". Every seeded scenario — simulator traces and the chaos
// schedule — is replayed cold (no score memo, no solver state, no
// decision memo) and cached, at several worker counts, and the rendered
// reports/transcripts must agree byte for byte. Any divergence is a
// correctness bug in a cache layer, never acceptable noise.
//
// The package is external (fleet_test) because the chaos harness imports
// fleet; replaying its transcript from inside package fleet would be an
// import cycle.

package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"

	"mpmc/internal/chaos"
	"mpmc/internal/fleet"
)

// render marshals exactly like the CLIs and the golden tests do, so a
// differential pass really covers the bytes CI pins.
func render(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func loadScenario(t *testing.T, path string) *fleet.Scenario {
	t.Helper()
	sc, err := fleet.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// workerCounts are the concurrency levels every differential replay runs
// at; output must not depend on any of them.
func workerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// TestDifferentialSimColdVsCached replays the simulator scenarios cold and
// cached at every worker count and asserts one byte-identical report. The
// heavier seeded scenario is skipped under -short; the smoke scenario
// keeps the fast -short -race lane covered.
func TestDifferentialSimColdVsCached(t *testing.T) {
	scenarios := []string{filepath.Join("testdata", "scenario_smoke.json")}
	if !testing.Short() {
		scenarios = append(scenarios, filepath.Join("testdata", "scenario_seed1.json"))
	}
	for _, path := range scenarios {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc := loadScenario(t, path)
			var ref []byte
			for _, w := range workerCounts() {
				for _, cap := range []int{-1, 0} {
					sim := fleet.NewSim(sc, w)
					sim.ScoreCacheCap = cap
					rep, err := sim.Run(context.Background())
					if err != nil {
						t.Fatalf("workers=%d cap=%d: %v", w, cap, err)
					}
					got := render(t, rep)
					if ref == nil {
						ref = got
					} else if !bytes.Equal(got, ref) {
						t.Fatalf("workers=%d cap=%d: report diverges from cold workers=1", w, cap)
					}
				}
			}
		})
	}
}

// TestDifferentialChaosColdVsCached replays the chaos schedule — node
// failures, injected faults, queue pressure, invariant checks after every
// event — cold and cached at every worker count, asserting one
// byte-identical transcript. Chaos is the adversarial half of the proof:
// fault injection and invalidation run mid-stream, so a stale cache entry
// or a warm/cold divergence in error paths surfaces here.
func TestDifferentialChaosColdVsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential replay is the long-lane variant")
	}
	sc := loadScenario(t, filepath.Join("..", "chaos", "testdata", "scenario_chaos.json"))
	var ref []byte
	for _, w := range workerCounts() {
		for _, cap := range []int{-1, 0} {
			sim := fleet.NewSim(sc, w)
			sim.ScoreCacheCap = cap
			tr, err := chaos.NewHarness(sim, chaos.Options{Seed: 1, Rate: 0.25}).Run(context.Background())
			if err != nil {
				t.Fatalf("workers=%d cap=%d: %v", w, cap, err)
			}
			got := render(t, tr)
			if ref == nil {
				ref = got
			} else if !bytes.Equal(got, ref) {
				t.Fatalf("workers=%d cap=%d: transcript diverges from cold workers=1", w, cap)
			}
		}
	}
}

// TestDifferentialChaosShortSmoke keeps a small chaos differential in the
// -short lane: one worker count, cold vs cached, full transcript bytes.
func TestDifferentialChaosShortSmoke(t *testing.T) {
	if !testing.Short() {
		t.Skip("covered exhaustively by TestDifferentialChaosColdVsCached")
	}
	sc := loadScenario(t, filepath.Join("..", "chaos", "testdata", "scenario_chaos.json"))
	var ref []byte
	for _, cap := range []int{-1, 0} {
		sim := fleet.NewSim(sc, 2)
		sim.ScoreCacheCap = cap
		tr, err := chaos.NewHarness(sim, chaos.Options{Seed: 1, Rate: 0.25}).Run(context.Background())
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		got := render(t, tr)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Fatal("cold and cached chaos transcripts diverge")
		}
	}
}
