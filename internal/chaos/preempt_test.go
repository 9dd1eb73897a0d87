package chaos

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpmc/internal/fleet"
)

// preemptScenario is a deliberately tight fleet — 4 slots, arrivals twice
// as fast as the shared chaos scenario — so the fleet is actually full
// when the schedule's priority arrivals land and preemption must fire.
func preemptScenario(t *testing.T) *fleet.Scenario {
	t.Helper()
	sc, err := fleet.LoadScenario(filepath.Join("testdata", "scenario_preempt.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestChaosPreemptGolden pins the preemption fault class: the transcript
// for a fixed (scenario, chaos seed, rate, preempt rate) must be
// byte-identical to the checked-in golden at both worker counts — the
// preemption scan, the transactional rollback, and the requeue/backoff
// ledger are all deterministic at any concurrency.
func TestChaosPreemptGolden(t *testing.T) {
	sc := preemptScenario(t)
	golden := filepath.Join("testdata", "chaos_preempt_seed1.json")
	for _, workers := range []int{1, 4} {
		tr, err := NewHarness(fleet.NewSim(sc, workers), Options{Seed: 1, Rate: 0.25, PreemptRate: 0.5}).Run(context.Background())
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

// TestChaosPreemptLaws guards what the preemption golden actually pins:
// priority arrivals are scheduled, preemptions really happen, every
// victim is requeued or reported (the conservation/preemption invariant
// runs after every event), and no priority inversion survives
// consecutive fault-free pumps.
func TestChaosPreemptLaws(t *testing.T) {
	sc := preemptScenario(t)
	tr, err := NewHarness(fleet.NewSim(sc, 2), Options{Seed: 1, Rate: 0.25, PreemptRate: 0.5}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr.PreemptProcs == 0 {
		t.Fatal("preempt rate 0.5 scheduled no priority arrivals")
	}
	kinds := map[string]int{}
	for _, inj := range tr.Injections {
		kinds[inj.Kind]++
	}
	if kinds["preempt_arrival"] != tr.PreemptProcs {
		t.Errorf("injections list %d preempt_arrivals, schedule has %d", kinds["preempt_arrival"], tr.PreemptProcs)
	}
	if kinds["preempt_commit_error"] == 0 {
		t.Error("no preemption commit fault armed (rollback path not exercised)")
	}
	var preemptions, aborted uint64
	for _, po := range tr.Policies {
		if len(po.Violations) > 0 {
			t.Errorf("policy %s: invariant violations: %v", po.Policy, po.Violations)
		}
		if po.Preemptions != po.PreemptRequeued+po.PreemptDropped {
			t.Errorf("policy %s: %d preemptions != %d requeued + %d dropped",
				po.Policy, po.Preemptions, po.PreemptRequeued, po.PreemptDropped)
		}
		if po.FinalResidents != 0 {
			t.Errorf("policy %s: %d residents leaked past the horizon", po.Policy, po.FinalResidents)
		}
		preemptions += po.Preemptions
		aborted += po.PreemptAborted
	}
	if preemptions == 0 {
		t.Error("no policy realized a single preemption — the class pins nothing")
	}
	if aborted == 0 {
		t.Error("no preemption rollback realized — the commit fault never landed mid-preemption")
	}
}

// TestChaosPreemptOnThreadGroups: priority arrivals on a scenario of
// thread groups may evict a single group member. The replay must follow
// that member into the queue (or out of the fleet) while its siblings stay
// resident, and every law must still hold. The threads scenario is packed
// tighter here — one process per core, arrivals twice as dense — so the
// priority arrivals find the fleet full and a group member is a victim.
func TestChaosPreemptOnThreadGroups(t *testing.T) {
	sc, err := fleet.LoadScenario("../fleet/testdata/scenario_threads.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Machines {
		sc.Machines[i].MaxPerCore = 1
	}
	sc.MeanInterarrival = 0.5
	tr, err := NewHarness(fleet.NewSim(sc, 2), Options{Seed: 1, Rate: 0.25, PreemptRate: 0.5}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var preemptions uint64
	for _, po := range tr.Policies {
		if len(po.Violations) > 0 {
			t.Errorf("policy %s: invariant violations: %v", po.Policy, po.Violations)
		}
		if po.FinalResidents != 0 {
			t.Errorf("policy %s: %d residents leaked past the horizon", po.Policy, po.FinalResidents)
		}
		preemptions += po.Preemptions
	}
	if preemptions == 0 {
		t.Error("no policy realized a single preemption — the test pins nothing")
	}
}

// TestChaosPreemptDisabledIsInert: PreemptRate 0 must leave the schedule,
// and therefore every pre-existing golden, byte-identical — the fifth
// random stream is only split off when the class is enabled.
func TestChaosPreemptDisabledIsInert(t *testing.T) {
	sc := chaosScenario(t)
	tr, err := NewHarness(fleet.NewSim(sc, 2), Options{Seed: 1, Rate: 0.25}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tr.PreemptProcs != 0 || tr.PreemptRate != 0 {
		t.Fatalf("disabled run scheduled %d preempt procs (rate %v)", tr.PreemptProcs, tr.PreemptRate)
	}
	for _, inj := range tr.Injections {
		if inj.Kind == "preempt_arrival" || inj.Kind == "preempt_commit_error" {
			t.Fatalf("disabled run scheduled %+v", inj)
		}
	}
	for _, po := range tr.Policies {
		if po.Preemptions+po.PreemptRequeued+po.PreemptDropped+po.PreemptAborted != 0 || po.PreemptPlaced != 0 {
			t.Errorf("policy %s: preemption counters nonzero on a disabled run: %+v", po.Policy, po)
		}
	}
}

func TestHarnessRejectsBadPreemptRate(t *testing.T) {
	sc := chaosScenario(t)
	if _, err := NewHarness(fleet.NewSim(sc, 0), Options{Seed: 1, PreemptRate: -0.1}).Run(context.Background()); err == nil {
		t.Fatal("preempt rate -0.1 accepted")
	}
}
