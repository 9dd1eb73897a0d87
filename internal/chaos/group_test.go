package chaos

import (
	"context"
	"runtime"
	"testing"

	"mpmc/internal/fleet"
)

// TestGroupInvariantsAfterEverySimEvent is the per-group conservation
// acceptance test: the sharing scenario (mixed group sizes, sharing
// fractions 0/0.5/0.9, both sharer-aware policies plus a group-oblivious
// arm) is replayed by a zero-rate harness, which sweeps CheckFleet after
// EVERY event — arrivals, departures, rebalances. Any broken invariant
// (member occupancy split, coherence-when-colocated, group ledger) is a
// violation in the transcript, at every worker count.
func TestGroupInvariantsAfterEverySimEvent(t *testing.T) {
	sc, err := fleet.LoadScenario("../fleet/testdata/scenario_threads.json")
	if err != nil {
		t.Fatal(err)
	}
	if sc.ThreadGroups == nil {
		t.Fatal("scenario_threads.json lost its thread_groups block")
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		tr, err := NewHarness(fleet.NewSim(sc, workers), Options{Seed: 1}).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, po := range tr.Policies {
			if len(po.Violations) > 0 {
				t.Fatalf("workers=%d policy %s: %d invariant violation(s), first: %v", workers, po.Policy, len(po.Violations), po.Violations[0])
			}
			// Every arrival and departure must have been swept: at least
			// 2×14 events per policy.
			if min := 2 * sc.Processes; po.InvariantChecks < min {
				t.Fatalf("workers=%d policy %s: only %d invariant sweeps ran, want >= %d", workers, po.Policy, po.InvariantChecks, min)
			}
			if po.GroupsPlaced == 0 {
				t.Fatalf("workers=%d policy %s: no thread group placed", workers, po.Policy)
			}
		}
	}
}

// TestGroupLedgerViolationDetected proves the ledger check has teeth: a
// fleet whose spawned-members counter is bumped without a matching
// placement or fault must be flagged.
func TestGroupLedgerViolationDetected(t *testing.T) {
	f := newTestFleet(t, nil)
	f.Registry().Counter("fleet_group_spawned_members_total").Add(3)
	var c Checker
	vs := c.CheckFleet(context.Background(), f)
	found := false
	for _, v := range vs {
		if v.Invariant == "conservation/group-ledger" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unbalanced group ledger not flagged; violations: %v", vs)
	}
}
