package fleet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mpmc/internal/workload"
)

// fillFleet packs the 4×2×2 test fleet to its 16-slot capacity at the
// given priority class and returns the placements.
func fillFleet(t *testing.T, f *Fleet, priority int) []Placed {
	t.Helper()
	ctx := context.Background()
	var out []Placed
	for _, s := range sixteenSpecs() {
		p, err := f.PlaceWith(ctx, s, PlaceOptions{Priority: priority})
		if err != nil {
			t.Fatalf("filling fleet: %v", err)
		}
		out = append(out, p)
	}
	return out
}

func TestPreemptionEvictsAndRequeues(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	ctx := context.Background()
	fillFleet(t, f, 0)
	arrival := workload.Suite()[0]

	// Priority 0 must NOT preempt: the legacy contract is a full fleet.
	if _, err := f.Place(ctx, arrival); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("priority-0 place on full fleet: err = %v, want ErrFleetFull", err)
	}

	p, err := f.PlaceWith(ctx, arrival, PlaceOptions{Priority: 1, Tag: "vip"})
	if err != nil {
		t.Fatalf("priority-1 place: %v", err)
	}
	if p.Preempted == nil {
		t.Fatal("placement on a full fleet must report its victim")
	}
	if !p.Preempted.Requeued {
		t.Fatal("victim must be requeued while the queue has room")
	}
	if p.Preempted.Priority != 0 {
		t.Fatalf("victim priority = %d, want 0", p.Preempted.Priority)
	}
	if got := checkCapacity(t, f); got != 16 {
		t.Fatalf("residents after preemption = %d, want 16 (capacity held)", got)
	}
	qi := f.QueuedInfo()
	if len(qi) != 1 || qi[0].Workload != p.Preempted.Workload {
		t.Fatalf("queue after preemption = %+v, want exactly the victim", qi)
	}
	if qi[0].Priority != 0 {
		t.Fatalf("victim requeued at priority %d, want its original 0", qi[0].Priority)
	}
	// First preemption: one recorded attempt, minimal (1-round) backoff —
	// the victim is eligible again at the very next pump.
	if !qi[0].Eligible {
		t.Fatal("first-attempt backoff is one round; the victim must be eligible at the next pump")
	}

	// The arrival is resident with its class recorded.
	found := false
	for _, ni := range f.Inspect() {
		for j, r := range ni.Residents {
			if r.Name == p.Name && ni.Name == p.Node {
				found = true
				if ni.Priorities[j] != 1 {
					t.Fatalf("arrival's recorded priority = %d, want 1", ni.Priorities[j])
				}
			}
		}
	}
	if !found {
		t.Fatalf("placed instance %s/%s not found in inspection", p.Node, p.Name)
	}

	// Free a slot: the removal's pump advances the round past the
	// victim's backoff and readmits it immediately.
	admitted, err := f.Remove(ctx, p.Node, p.Name)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	if len(admitted) != 1 || admitted[0].Preempted != nil {
		t.Fatalf("pump admitted %+v, want exactly the recovered victim", admitted)
	}
	if f.QueueDepth() != 0 {
		t.Fatalf("queue depth after recovery = %d, want 0", f.QueueDepth())
	}
}

func TestPreemptionPicksLowestClassCheapestVictim(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	ctx := context.Background()
	specs := sixteenSpecs()
	// 15 residents at class 2, one at class 1: the class-1 resident is the
	// only victim a class-3 arrival may take, regardless of SPI deltas.
	var lowName, lowNode string
	for i, s := range specs {
		prio := 2
		if i == 7 {
			prio = 1
		}
		p, err := f.PlaceWith(ctx, s, PlaceOptions{Priority: prio})
		if err != nil {
			t.Fatalf("fill: %v", err)
		}
		if i == 7 {
			lowName, lowNode = p.Name, p.Node
		}
	}
	p, err := f.PlaceWith(ctx, workload.Suite()[2], PlaceOptions{Priority: 3})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if p.Preempted == nil || p.Preempted.Name != lowName || p.Preempted.Node != lowNode {
		t.Fatalf("victim = %+v, want the sole class-1 resident %s/%s", p.Preempted, lowNode, lowName)
	}
}

func TestPreemptionNoOutrankedResident(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	ctx := context.Background()
	fillFleet(t, f, 5)
	before := snapshotFleet(f)
	_, err := f.PlaceWith(ctx, workload.Suite()[1], PlaceOptions{Priority: 5})
	if !errors.Is(err, ErrFleetFull) {
		t.Fatalf("equal-class arrival: err = %v, want ErrFleetFull", err)
	}
	requireUnchanged(t, f, before)
}

func TestPreemptionDropsVictimWhenQueueDisabled(t *testing.T) {
	f := testFleet(t, LeastDegradation, func(c *Config) { c.QueueCap = -1 })
	ctx := context.Background()
	fillFleet(t, f, 0)
	p, err := f.PlaceWith(ctx, workload.Suite()[3], PlaceOptions{Priority: 2})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if p.Preempted == nil || p.Preempted.Requeued {
		t.Fatalf("victim disposition = %+v, want reported drop (no queue to requeue into)", p.Preempted)
	}
	if got := f.Registry().Counter("fleet_preempt_dropped_total").Value(); got != 1 {
		t.Fatalf("fleet_preempt_dropped_total = %d, want 1", got)
	}
}

// TestPreemptionRollsBackOnCommitFailure is the forced-failure
// transaction test: the victim is evicted, then the arrival's commit is
// made to fail through the fault seam — every machine's resident set and
// the queue must be deep-equal to their pre-preemption state.
func TestPreemptionRollsBackOnCommitFailure(t *testing.T) {
	var armed atomic.Bool
	boom := errors.New("injected commit failure")
	f := testFleet(t, LeastDegradation, func(c *Config) {
		c.Intercept = func(site, key string) error {
			if armed.Load() && site == "manager.place_at" {
				return boom
			}
			return nil
		}
	})
	ctx := context.Background()
	fillFleet(t, f, 0)
	if _, err := f.Submit(workload.Suite()[4], "queued-bystander"); err != nil {
		t.Fatalf("submit: %v", err)
	}
	before := snapshotFleet(f)
	ledgerBefore := f.ledger.Snapshot()

	armed.Store(true)
	_, err := f.PlaceWith(ctx, workload.Suite()[0], PlaceOptions{Priority: 9})
	armed.Store(false)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	requireUnchanged(t, f, before)
	if qi := f.QueuedInfo(); len(qi) != 1 || qi[0].Tag != "queued-bystander" {
		t.Fatalf("queue disturbed by rolled-back preemption: %+v", qi)
	}
	if f.ledger.Len() != len(ledgerBefore) {
		t.Fatalf("ledger disturbed by rolled-back preemption: %d entries, want %d",
			f.ledger.Len(), len(ledgerBefore))
	}
	if got := f.Registry().Counter("fleet_preempt_aborted_total").Value(); got != 1 {
		t.Fatalf("fleet_preempt_aborted_total = %d, want 1", got)
	}
	// The cluster is intact: the same arrival succeeds once the fault
	// clears, proving the rollback left a placeable fleet.
	if _, err := f.PlaceWith(ctx, workload.Suite()[0], PlaceOptions{Priority: 9}); err != nil {
		t.Fatalf("place after fault cleared: %v", err)
	}
}

// TestPreemptionBackoffEscalatesToDrop preempts the same logical process
// (pinned by tag) repeatedly: each requeue doubles its backoff, and once
// the ledger's default attempt budget (three) is spent the victim is
// dropped with the drop reported, never silently.
func TestPreemptionBackoffEscalatesToDrop(t *testing.T) {
	f := testFleet(t, LeastDegradation, nil)
	ctx := context.Background()
	specs := sixteenSpecs()
	// One class-0 victim (tagged), the rest class 1: every preemption by a
	// class-2 arrival must take the tagged process.
	for i, s := range specs {
		prio, tag := 1, ""
		if i == 0 {
			prio, tag = 0, "victim"
		}
		if _, err := f.PlaceWith(ctx, s, PlaceOptions{Priority: prio, Tag: tag}); err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	evictAndRecover := func(wantRequeued bool) {
		t.Helper()
		p, err := f.PlaceWith(ctx, workload.Suite()[0], PlaceOptions{Priority: 2})
		if err != nil {
			t.Fatalf("preempting place: %v", err)
		}
		if p.Preempted == nil || p.Preempted.Tag != "victim" {
			t.Fatalf("victim = %+v, want the tagged class-0 process", p.Preempted)
		}
		if p.Preempted.Requeued != wantRequeued {
			t.Fatalf("requeued = %v, want %v", p.Preempted.Requeued, wantRequeued)
		}
		if !wantRequeued {
			return
		}
		// Free the slot the arrival took and pump until the victim's
		// backoff expires and it readmits.
		if _, err := f.Remove(ctx, p.Node, p.Name); err != nil {
			t.Fatalf("remove: %v", err)
		}
		for i := 0; f.QueueDepth() > 0; i++ {
			if i > 16 {
				t.Fatal("victim never readmitted: backoff did not expire")
			}
			if _, err := f.Pump(ctx); err != nil {
				t.Fatalf("pump: %v", err)
			}
		}
	}
	evictAndRecover(true)  // attempt 1: backoff 1 round
	evictAndRecover(true)  // attempt 2: backoff 2 rounds
	evictAndRecover(true)  // attempt 3: backoff 4 rounds
	evictAndRecover(false) // attempt 4: budget of 3 spent → reported drop
	if got := f.Registry().Counter("fleet_preempt_requeued_total").Value(); got != 3 {
		t.Fatalf("fleet_preempt_requeued_total = %d, want 3", got)
	}
	if got := f.Registry().Counter("fleet_preempt_dropped_total").Value(); got != 1 {
		t.Fatalf("fleet_preempt_dropped_total = %d, want 1", got)
	}
}
