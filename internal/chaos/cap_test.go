package chaos

// The cap-flip fault class: power-budget flips under chaos, with the
// budget and ledger invariants checked after every event and the
// transcript pinned at two worker counts.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpmc/internal/fleet"
)

// capScenario is a loaded fleet — arrivals faster than departures on
// three machines — so an engaged budget actually binds and enforcement
// has residents to down-clock or migrate.
func capScenario(t *testing.T) *fleet.Scenario {
	t.Helper()
	sc, err := fleet.LoadScenario(filepath.Join("testdata", "scenario_cap.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// capOpts is the pinned cap-flip configuration: a budget around the
// fleet's loaded draw, so flips alternate between binding hard and
// barely at all.
func capOpts() Options {
	return Options{Seed: 1, Rate: 0.25, CapRate: 0.5, CapWatts: 26}
}

// TestChaosCapGolden pins the cap-flip fault class: the transcript for a
// fixed (scenario, chaos seed, rate, cap rate, cap watts) must be
// byte-identical to the checked-in golden at both worker counts — the
// enforcement scan, its transactional application, and the watt ledger
// are all deterministic at any concurrency.
func TestChaosCapGolden(t *testing.T) {
	sc := capScenario(t)
	golden := filepath.Join("testdata", "chaos_cap_seed1.json")
	for _, workers := range []int{1, 4} {
		tr, err := NewHarness(fleet.NewSim(sc, workers), capOpts()).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := renderTranscript(t, tr)
		if *update && workers == 1 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			dump := golden + fmt.Sprintf(".got-w%d.json", workers)
			os.WriteFile(dump, got, 0o644)
			t.Fatalf("workers=%d: transcript differs from golden; wrote %s", workers, dump)
		}
	}
}

// TestChaosCapLaws guards what the cap golden actually pins: flips are
// scheduled in both directions, at least one engaged budget forces real
// enforcement actions, and no policy run breaks the budget or ledger
// invariants (checked after every event).
func TestChaosCapLaws(t *testing.T) {
	sc := capScenario(t)
	tr, err := NewHarness(fleet.NewSim(sc, 2), capOpts()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, inj := range tr.Injections {
		kinds[inj.Kind]++
	}
	if kinds["cap_engage"] == 0 {
		t.Fatal("cap rate 0.5 scheduled no engaging flip")
	}
	if kinds["cap_engage"]+kinds["cap_off"] == 0 {
		t.Fatal("no cap flips scheduled")
	}
	actions := 0
	for _, po := range tr.Policies {
		if len(po.Violations) > 0 {
			t.Errorf("policy %s: invariant violations: %v", po.Policy, po.Violations)
		}
		if po.CapFlips == 0 {
			t.Errorf("policy %s: no cap flips executed", po.Policy)
		}
		actions += po.CapDownclocks + po.CapMigrations
	}
	if actions == 0 {
		t.Error("no policy realized a single enforcement action — the class pins nothing")
	}
}

// TestChaosCapDisabledIsInert: CapRate 0 must leave the schedule, and
// therefore every pre-existing golden, byte-identical — the extra random
// stream is only split off when the class is enabled.
func TestChaosCapDisabledIsInert(t *testing.T) {
	sc := chaosScenario(t)
	tr, err := NewHarness(fleet.NewSim(sc, 2), Options{Seed: 1, Rate: 0.25}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr.CapRate != 0 || tr.CapWatts != 0 {
		t.Fatalf("disabled run reports cap rate %v watts %v", tr.CapRate, tr.CapWatts)
	}
	for _, inj := range tr.Injections {
		if inj.Kind == "cap_engage" || inj.Kind == "cap_off" {
			t.Fatalf("disabled run scheduled %+v", inj)
		}
	}
	for _, po := range tr.Policies {
		if po.CapFlips+po.CapDownclocks+po.CapMigrations+po.CapUnsatisfied != 0 {
			t.Errorf("policy %s: cap counters nonzero on a disabled run: %+v", po.Policy, po)
		}
	}
}

func TestHarnessRejectsBadCapOptions(t *testing.T) {
	sc := chaosScenario(t)
	if _, err := NewHarness(fleet.NewSim(sc, 0), Options{Seed: 1, CapRate: 1.5, CapWatts: 10}).Run(context.Background()); err == nil {
		t.Fatal("cap rate 1.5 accepted")
	}
	if _, err := NewHarness(fleet.NewSim(sc, 0), Options{Seed: 1, CapRate: 0.5}).Run(context.Background()); err == nil {
		t.Fatal("cap rate without a budget accepted")
	}
}
