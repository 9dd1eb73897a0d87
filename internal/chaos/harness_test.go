package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mpmc/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite golden files")

func chaosScenario(t *testing.T) *fleet.Scenario {
	t.Helper()
	sc, err := fleet.LoadScenario(filepath.Join("testdata", "scenario_chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func renderTranscript(t *testing.T, tr *Transcript) []byte {
	t.Helper()
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestChaosGolden is the acceptance pin: the transcript for a fixed
// (scenario, chaos seed, rate) must be byte-identical to the checked-in
// golden at every worker count.
func TestChaosGolden(t *testing.T) {
	sc := chaosScenario(t)
	golden := filepath.Join("testdata", "chaos_seed1.json")
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		tr, err := NewHarness(fleet.NewSim(sc, workers), Options{Seed: 1, Rate: 0.25}).Run(context.Background())
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

// TestChaosTranscriptExercisesEveryFaultClass guards the schedule itself:
// a golden that injects nothing pins nothing.
func TestChaosTranscriptExercisesEveryFaultClass(t *testing.T) {
	sc := chaosScenario(t)
	tr, err := NewHarness(fleet.NewSim(sc, 2), Options{Seed: 1, Rate: 0.25}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, inj := range tr.Injections {
		kinds[inj.Kind]++
	}
	for _, want := range []string{"node_down", "burst", "cancel"} {
		if kinds[want] == 0 {
			t.Errorf("schedule has no %q injection (kinds: %v)", want, kinds)
		}
	}
	// At least one of the placement-path error classes must be armed.
	if kinds["profile_error"]+kinds["score_error"]+kinds["place_error"] == 0 {
		t.Errorf("schedule arms no placement-path error (kinds: %v)", kinds)
	}
	if tr.BurstProcs == 0 {
		t.Error("no burst processes generated")
	}
	for _, po := range tr.Policies {
		if len(po.Violations) > 0 {
			t.Errorf("policy %s: invariant violations under chaos: %v", po.Policy, po.Violations)
		}
		if po.InvariantChecks == 0 {
			t.Errorf("policy %s: no invariant checks ran", po.Policy)
		}
		if po.FinalResidents != 0 {
			t.Errorf("policy %s: %d residents leaked past the horizon", po.Policy, po.FinalResidents)
		}
		if po.NodesLost == 0 {
			t.Errorf("policy %s: no machine loss exercised", po.Policy)
		}
		if po.Faulted+po.Cancelled == 0 {
			t.Errorf("policy %s: no arrival-path fault realized", po.Policy)
		}
	}
}

// TestChaosSeedsDiverge: different chaos seeds must produce different
// schedules — otherwise the seed plumbing is dead.
func TestChaosSeedsDiverge(t *testing.T) {
	sc := chaosScenario(t)
	a, err := NewHarness(fleet.NewSim(sc, 0), Options{Seed: 1, Rate: 0.25}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHarness(fleet.NewSim(sc, 0), Options{Seed: 2, Rate: 0.25}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(renderTranscript(t, a), renderTranscript(t, b)) {
		t.Fatal("seeds 1 and 2 produced identical transcripts")
	}
}

// TestChaosZeroRateMatchesCleanRun: rate 0 injects nothing and every
// policy completes with clean invariants.
func TestChaosZeroRateIsFaultFree(t *testing.T) {
	sc := chaosScenario(t)
	tr, err := NewHarness(fleet.NewSim(sc, 0), Options{Seed: 1, Rate: 0}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Injections) != 0 || tr.BurstProcs != 0 {
		t.Fatalf("rate 0 scheduled %d injections, %d bursts", len(tr.Injections), tr.BurstProcs)
	}
	for _, po := range tr.Policies {
		if po.Faulted+po.Cancelled+po.NodesLost != 0 {
			t.Errorf("policy %s: faults realized at rate 0: %+v", po.Policy, po)
		}
		if len(po.Violations) > 0 {
			t.Errorf("policy %s: violations: %v", po.Policy, po.Violations)
		}
	}
}

func TestHarnessRejectsBadRate(t *testing.T) {
	sc := chaosScenario(t)
	if _, err := NewHarness(fleet.NewSim(sc, 0), Options{Seed: 1, Rate: 1.5}).Run(context.Background()); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
}

// TestChaosZeroRateMatchesSim: with no fault scheduled the harness replays
// exactly what fleet.Sim does — the same averages to the last bit and the
// same residents, queue, move, group and cap counters — on every testdata
// scenario, thread groups and scenario power caps included.
func TestChaosZeroRateMatchesSim(t *testing.T) {
	paths := []string{
		"testdata/scenario_chaos.json", "testdata/scenario_preempt.json", "testdata/scenario_cap.json",
		"../fleet/testdata/scenario_seed1.json", "../fleet/testdata/scenario_smoke.json", "../fleet/testdata/scenario_threads.json",
	}
	scenarios := map[string]*fleet.Scenario{}
	for _, p := range paths {
		sc, err := fleet.LoadScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		scenarios[filepath.Base(p)] = sc
	}
	// The cap scenario under a budget from t=0 that a cap event tightens
	// mid-run and a second lifts: admissions are refused and enforcement
	// down-clocks and migrates.
	capped := *scenarios["scenario_cap.json"]
	capped.PowerCap = 40
	capped.CapEvents = []fleet.CapEvent{{Time: 6, Watts: 26}, {Time: 18, Watts: 0}}
	scenarios["scenario_cap.json+power_cap"] = &capped

	type replayed struct {
		SPI, Watts                                   uint64
		FinalResidents                               int
		QueueAdmitted, QueueAbandoned, QueueRejected uint64
		Moves, GroupsPlaced, GroupsRejected          uint64
		CapDownclocks, CapMigrations, CapUnsatisfied uint64
	}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			sim := fleet.NewSim(sc, 2)
			rep, err := sim.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewHarness(sim, Options{Seed: 1}).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Policies) != len(rep.Policies) {
				t.Fatalf("%d chaos policies, %d sim policies", len(tr.Policies), len(rep.Policies))
			}
			for i, pr := range rep.Policies {
				po := tr.Policies[i]
				if len(po.Violations) > 0 {
					t.Errorf("policy %s: violations: %v", po.Policy, po.Violations)
				}
				want := replayed{
					math.Float64bits(pr.AvgSPI), math.Float64bits(pr.AvgWatts), pr.FinalResidents,
					pr.QueueAdmitted, pr.QueueAbandoned, pr.QueueRejected,
					pr.Moves, pr.GroupsPlaced, pr.GroupsRejected,
					pr.CapDownclocks, pr.CapMigrations, pr.CapUnsatisfied,
				}
				got := replayed{
					math.Float64bits(po.AvgSPI), math.Float64bits(po.AvgWatts), po.FinalResidents,
					po.QueueAdmitted, po.QueueAbandoned, po.QueueRejected,
					po.Moves, uint64(po.GroupsPlaced), uint64(po.GroupsRejected),
					uint64(po.CapDownclocks), uint64(po.CapMigrations), uint64(po.CapUnsatisfied),
				}
				if got != want {
					t.Errorf("policy %s: chaos %+v, sim %+v", pr.Policy, got, want)
				}
			}
		})
	}
}

// TestChaosThreadsGolden pins chaos on thread groups: the transcript of
// the sharing scenario at seed 1, rate 0.25 must be byte-identical to the
// checked-in golden at every worker count. At least one score or place
// fault must land on a group and fault a member after the first, so
// PlaceGroup rolls back an admitted member under chaos.
func TestChaosThreadsGolden(t *testing.T) {
	sc, err := fleet.LoadScenario("../fleet/testdata/scenario_threads.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chaos_threads_seed1.json")
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		tr, err := NewHarness(fleet.NewSim(sc, workers), Options{Seed: 1, Rate: 0.25}).Run(context.Background())
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
		if workers > 1 {
			continue
		}
		// Score and place faults enter the group transaction; a profile
		// fault or a cancel fails before any member is placed.
		trace := sc.Trace()
		onGroups := 0
		for _, inj := range tr.Injections {
			_, proc, _ := strings.Cut(inj.Target, "#")
			id, err := strconv.Atoi(proc)
			if (inj.Kind == className[classScore] || inj.Kind == className[classPlace]) && err == nil && trace[id].Threads > 1 {
				onGroups++
			}
		}
		if onGroups == 0 {
			t.Fatalf("no score or place fault landed on a thread group (injections %v)", tr.Injections)
		}
		rollbacks := 0
		for _, po := range tr.Policies {
			if len(po.Violations) > 0 {
				t.Errorf("policy %s: violations: %v", po.Policy, po.Violations)
			}
			if po.GroupsPlaced == 0 {
				t.Errorf("policy %s: no thread group placed", po.Policy)
			}
			rollbacks += po.FaultRollbacks
		}
		if rollbacks == 0 {
			t.Error("no faulted group was rolled back after admitting a member")
		}
	}
}
