package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/metrics"
	"mpmc/internal/threads"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// Regression tests for the places the sharded front's hand copies of the
// all-lock operations had drifted from the unsharded fleet (and two where
// the unsharded rollback itself was incomplete). Every test runs on both
// engines; each failed before the two shared one implementation.

// driftEngines builds the same fleet unsharded and as 2 shards: machines
// × TwoCoreWorkstation × perCore slots a core, a generous watt budget
// (the ledger is live, nothing is refused), truth features.
func driftEngines(t *testing.T, policy Policy, machines, perCore int, mutate func(*Config)) map[string]engine {
	t.Helper()
	config := func() Config {
		cfg := Config{
			Policy: policy, QueueCap: 4, Seed: 1, Workers: 2, PowerCap: 1e4,
			Profile: oracle(nil, 0), Registry: metrics.NewRegistry(),
		}
		for i := 0; i < machines; i++ {
			cfg.Nodes = append(cfg.Nodes, NodeConfig{Machine: machine.TwoCoreWorkstation(), Power: testPower(t), MaxPerCore: perCore})
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	f, err := New(config())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(config(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]engine{"unsharded": f, "sharded": s}
}

// ledgerView is everything a rolled-back operation must leave untouched,
// floats by bit pattern.
type ledgerView struct {
	usage uint64
	rungs map[string]int
	state string
}

func viewOf(t *testing.T, e engine) ledgerView {
	t.Helper()
	st, err := e.State(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return ledgerView{math.Float64bits(e.CapUsage()), e.FreqStates(), string(b)}
}

func cycle(n int) []*workload.Spec {
	suite := workload.Suite()
	out := make([]*workload.Spec, n)
	for i := range out {
		out[i] = suite[i%len(suite)]
	}
	return out
}

// TestRollbackRestoresLedgerAndRungs: a rolled-back batch, group, or
// preemption leaves the watt ledger and every DVFS rung bit for bit as
// they were. The frequency-aware policies re-clock the node they commit
// on — here back up to base, after an enforcement pass had down-clocked
// the fleet — so a rollback that restores managers only leaves rungs (and
// with them the ledger rows) behind.
func TestRollbackRestoresLedgerAndRungs(t *testing.T) {
	ctx := context.Background()
	boom := errors.New("injected commit fault")
	for _, policy := range []Policy{LeastEnergy, CapAware} {
		var failCommit atomic.Bool
		engines := driftEngines(t, policy, 4, 2, func(c *Config) {
			c.Intercept = func(site, key string) error {
				if failCommit.Load() && site == "manager.place_at" {
					return boom
				}
				return nil
			}
		})
		for name, e := range engines {
			t.Run(fmt.Sprintf("%s/%s", policy, name), func(t *testing.T) {
				requireSame := func(what string, before ledgerView) {
					t.Helper()
					after := viewOf(t, e)
					if after.usage != before.usage {
						t.Errorf("%s: CapUsage %v → %v", what, math.Float64frombits(before.usage), math.Float64frombits(after.usage))
					}
					if !reflect.DeepEqual(after.rungs, before.rungs) {
						t.Errorf("%s: rungs %v → %v", what, before.rungs, after.rungs)
					}
					if after.state != before.state {
						t.Errorf("%s: state bytes changed:\n before %s\n after  %s", what, before.state, after.state)
					}
				}

				// 17 specs on 16 slots: sixteen commits, then the rollback.
				before := viewOf(t, e)
				idle := e.CapUsage()
				if _, err := e.PlaceAll(ctx, cycle(17)); !errors.Is(err, ErrFleetFull) {
					t.Fatalf("overfull batch: %v, want ErrFleetFull", err)
				}
				requireSame("rolled-back PlaceAll", before)

				// Twelve residents in, down-clocked by a budget that sheds a third
				// of their dynamic draw and is then lifted; then a 6-thread group
				// on the 4 free slots, whose commits re-clock nodes to base.
				if _, err := e.PlaceAll(ctx, cycle(12)); err != nil {
					t.Fatal(err)
				}
				if err := e.SetPowerCap(ctx, idle+(e.CapUsage()-idle)*2/3); err != nil {
					t.Fatal(err)
				}
				if rep, err := e.EnforceCap(ctx); err != nil || rep.Downclocks == 0 {
					t.Fatalf("enforcement %+v (%v), want down-clocks", rep, err)
				}
				if err := e.SetPowerCap(ctx, 1e4); err != nil {
					t.Fatal(err)
				}
				before = viewOf(t, e)
				offBase := 0
				for _, ix := range before.rungs {
					if ix != machine.TwoCoreWorkstation().Freq.BaseIx() {
						offBase++
					}
				}
				if offBase == 0 {
					t.Fatal("no node is off its base rung: the rung half of this test is vacuous")
				}
				g := threads.GroupSpec{Base: workload.ByName("gzip"), Threads: 6, SharedFrac: 0.5, WriteFrac: 0.5}
				if _, err := e.PlaceGroup(ctx, g); !errors.Is(err, ErrFleetFull) {
					t.Fatalf("overfull group: %v, want ErrFleetFull", err)
				}
				requireSame("rolled-back PlaceGroup", before)

				// Fill up, then a class-2 arrival whose victim is evicted and
				// whose own commit faults.
				if _, err := e.PlaceAll(ctx, cycle(4)); err != nil {
					t.Fatal(err)
				}
				before = viewOf(t, e)
				failCommit.Store(true)
				_, err := e.PlaceWith(ctx, workload.ByName("mcf"), PlaceOptions{Priority: 2})
				failCommit.Store(false)
				if !errors.Is(err, boom) {
					t.Fatalf("faulted preemption: %v, want the injected fault", err)
				}
				requireSame("rolled-back preemption", before)
			})
		}
	}
}

// TestOneJournalBatchPerOperation: a batch and a group that span shards
// each reach Config.Journal as exactly one batch — the WAL's durability
// unit is the operation, so a crash recovers all of it or none.
func TestOneJournalBatchPerOperation(t *testing.T) {
	ctx := context.Background()
	var batches [][]wal.Event
	engines := driftEngines(t, SpreadSharers, 4, 1, func(c *Config) {
		c.Journal = func(events []wal.Event) { batches = append(batches, append([]wal.Event(nil), events...)) }
	})
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			spansShards := func(placed []Placed) bool {
				nodes := map[string]bool{}
				for _, p := range placed {
					nodes[p.Node] = true
				}
				return (nodes["m0"] || nodes["m1"]) && (nodes["m2"] || nodes["m3"])
			}
			batches = nil
			placed, err := e.PlaceAll(ctx, cycle(4))
			if err != nil {
				t.Fatal(err)
			}
			if !spansShards(placed) {
				t.Fatalf("batch landed on one shard: %+v", placed)
			}
			if len(batches) != 1 || len(batches[0]) != 4 {
				t.Fatalf("a 4-spec batch reached the journal as %d batch(es): %+v", len(batches), batches)
			}
			batches = nil
			placed, err = e.PlaceGroup(ctx, threads.GroupSpec{Base: workload.ByName("gzip"), Threads: 4, SharedFrac: 0.5, WriteFrac: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if !spansShards(placed) {
				t.Fatalf("group landed on one shard: %+v", placed)
			}
			if len(batches) != 1 || len(batches[0]) != 4 {
				t.Fatalf("a 4-member group reached the journal as %d batch(es): %+v", len(batches), batches)
			}
		})
	}
}

// TestPreemptionVictimRequeuedWithBackoff: a preemption victim re-enters
// the admission queue under a cancellable ticket with ledger backoff — on
// its second eviction it is visibly ineligible until its backoff round —
// and a later pump re-admits it.
func TestPreemptionVictimRequeuedWithBackoff(t *testing.T) {
	ctx := context.Background()
	for name, e := range driftEngines(t, LeastDegradation, 2, 1, nil) {
		t.Run(name, func(t *testing.T) {
			// Four slots: three class-1 residents and one class-0, so every
			// preemption by a class-2 arrival picks the same victim.
			for i, s := range cycle(4) {
				opts := PlaceOptions{Priority: 1}
				if i == 3 {
					opts = PlaceOptions{Tag: "victim"}
				}
				if _, err := e.PlaceWith(ctx, s, opts); err != nil {
					t.Fatal(err)
				}
			}
			preempt := func() Placed {
				t.Helper()
				p, err := e.PlaceWith(ctx, workload.ByName("mcf"), PlaceOptions{Priority: 2})
				if err != nil {
					t.Fatal(err)
				}
				if v := p.Preempted; v == nil || v.Tag != "victim" || !v.Requeued || v.Ticket == 0 {
					t.Fatalf("victim disposition %+v, want the class-0 resident requeued under a ticket", v)
				}
				return p
			}
			victim := func() QueuedEntry {
				t.Helper()
				qi := e.QueuedInfo()
				if len(qi) != 1 || qi[0].Tag != "victim" {
					t.Fatalf("queue %+v, want exactly the victim", qi)
				}
				return qi[0]
			}

			// First eviction: one-round backoff, eligible at the next pump —
			// the arrival's departure cascades into re-admitting it.
			p := preempt()
			if q := victim(); !q.Eligible || q.Ticket != p.Preempted.Ticket {
				t.Fatalf("first requeue %+v, want eligible under ticket %d", q, p.Preempted.Ticket)
			}
			if back, err := e.Remove(ctx, p.Node, p.Name); err != nil || len(back) != 1 || back[0].Tag != "victim" {
				t.Fatalf("departure re-admitted %+v (%v), want the victim", back, err)
			}

			// Second eviction of the same logical process: backoff doubles.
			p = preempt()
			if q := victim(); q.Eligible {
				t.Fatalf("second requeue %+v is eligible inside its backoff", q)
			}
			if back, err := e.Remove(ctx, p.Node, p.Name); err != nil || len(back) != 0 {
				t.Fatalf("departure inside the backoff admitted %+v (%v)", back, err)
			}
			if q := victim(); !q.Eligible {
				t.Fatalf("victim %+v still ineligible at its backoff round", q)
			}
			back, err := e.Pump(ctx)
			if err != nil || len(back) != 1 || back[0].Tag != "victim" {
				t.Fatalf("pump at the backoff round admitted %+v (%v), want the victim", back, err)
			}

			// A requeued victim's ticket cancels like any other.
			p = preempt()
			if !e.CancelQueued(p.Preempted.Ticket) || len(e.QueuedInfo()) != 0 {
				t.Fatalf("ticket %d did not cancel the requeued victim", p.Preempted.Ticket)
			}
		})
	}
}

// TestRegistryCountsAllLockOperations: the registry a sharded fleet
// exposes carries the counters of the operations it runs under every
// lock, and the chaos invariant preempt_total == requeued + dropped holds
// on it.
func TestRegistryCountsAllLockOperations(t *testing.T) {
	ctx := context.Background()
	for name, e := range driftEngines(t, LeastDegradation, 2, 1, func(c *Config) { c.QueueCap = 1 }) {
		t.Run(name, func(t *testing.T) {
			if _, err := e.PlaceAll(ctx, cycle(4)); err != nil {
				t.Fatal(err)
			}
			// Two preemptions: the first victim is requeued, the second finds
			// the one-entry queue full and is dropped.
			for i := 0; i < 2; i++ {
				if _, err := e.PlaceWith(ctx, workload.ByName("mcf"), PlaceOptions{Priority: 1 + i}); err != nil {
					t.Fatal(err)
				}
			}
			// A batch that commits one placement into a freed slot, then rolls back.
			ni := e.Inspect()[0]
			if _, err := e.Remove(ctx, ni.Name, ni.Residents[0].Name); err != nil {
				t.Fatal(err)
			}
			for _, q := range e.QueuedInfo() {
				e.CancelQueued(q.Ticket)
			}
			ni = e.Inspect()[0]
			if len(ni.Residents) > 0 {
				if _, err := e.Remove(ctx, ni.Name, ni.Residents[0].Name); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.PlaceAll(ctx, cycle(3)); !errors.Is(err, ErrFleetFull) {
				t.Fatalf("overfull batch: %v, want ErrFleetFull", err)
			}
			// A budget below the current draw: enforcement down-clocks.
			_, watts, err := e.Totals(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetPowerCap(ctx, watts*0.97); err != nil {
				t.Fatal(err)
			}
			if _, err := e.EnforceCap(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := e.FailNode("m1"); err != nil {
				t.Fatal(err)
			}

			reg := e.Registry()
			preempts := reg.CounterValue("fleet_preempt_total")
			requeued, dropped := reg.CounterValue("fleet_preempt_requeued_total"), reg.CounterValue("fleet_preempt_dropped_total")
			if preempts != 2 || requeued != 1 || dropped != 1 {
				t.Errorf("preempt_total %d, requeued %d, dropped %d; want 2 = 1 + 1", preempts, requeued, dropped)
			}
			for _, counter := range []string{"fleet_node_down_total", "fleet_place_rollback_total", "fleet_cap_downclocks_total"} {
				if reg.CounterValue(counter) == 0 {
					t.Errorf("%s = 0 after the matching operation", counter)
				}
			}
		})
	}
}

// TestCapRefusalKeepsQueuedEntry: a watt refusal at commit is a capacity
// verdict, never a failure. A capped least-watts fleet's ledger refuses
// the queued head's scored pick at commit; the head is confirmed under the
// whole lock, where a class-0 head stays queued and a class-2 head
// preempts — through every path that pumps, on both engines.
func TestCapRefusalKeepsQueuedEntry(t *testing.T) {
	ctx := context.Background()
	triggers := map[string]func(e engine) ([]Placed, error){
		"pump":    func(e engine) ([]Placed, error) { return e.Pump(ctx) },
		"restore": func(e engine) ([]Placed, error) { return e.RestoreNode(ctx, "m2") },
		"remove": func(e engine) ([]Placed, error) {
			ni := e.Inspect()[1]
			return e.Remove(ctx, ni.Name, ni.Residents[0].Name)
		},
	}
	// setup leaves m0 one class-0 resident and a free core, m1 two class-1
	// residents, and m2 down for the restore trigger.
	setup := func(t *testing.T, e engine, via string) {
		t.Helper()
		for i, s := range []*workload.Spec{workload.ByName("mcf"), workload.ByName("gzip"), workload.ByName("art")} {
			opts := PlaceOptions{Priority: 1}
			if i == 0 {
				opts = PlaceOptions{Tag: "victim"}
			}
			if _, err := e.PlaceWith(ctx, s, opts); err != nil {
				t.Fatal(err)
			}
		}
		if via == "restore" {
			if _, err := e.FailNode("m2"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, via := range []string{"pump", "restore", "remove"} {
		for _, prio := range []int{0, 2} {
			twins := driftEngines(t, LeastWatts, 3, 1, nil)
			for name, e := range driftEngines(t, LeastWatts, 3, 1, nil) {
				t.Run(fmt.Sprintf("%s/class%d/%s", via, prio, name), func(t *testing.T) {
					// The twin takes the trigger with an empty queue: its draw
					// afterwards is the budget, so no addition fits once the
					// trigger has run, but a same-sized swap does.
					twin := twins[name]
					setup(t, twin, via)
					if _, err := triggers[via](twin); err != nil {
						t.Fatal(err)
					}
					setup(t, e, via)
					if err := e.SetPowerCap(ctx, twin.CapUsage()); err != nil {
						t.Fatal(err)
					}
					ticket, err := e.SubmitWith(workload.ByName("mcf"), "head", prio)
					if err != nil {
						t.Fatal(err)
					}
					placed, err := triggers[via](e)
					if err != nil {
						t.Fatal(err)
					}
					free := false
					for _, ni := range e.Inspect() {
						free = free || (!ni.Down && len(ni.Residents) < ni.Machine.NumCores)
					}
					if !free {
						t.Fatal("no free slot: the head was never scored onto a pick the ledger could refuse")
					}
					if n := e.Registry().CounterValue("fleet_queue_dropped_total"); n != 0 {
						t.Fatalf("a watt refusal dropped %d queued entr(ies)", n)
					}
					queued := false
					for _, q := range e.QueuedInfo() {
						queued = queued || q.Ticket == ticket
					}
					switch {
					case prio == 0 && (queued && len(placed) == 0):
					case prio > 0 && !queued && len(placed) == 1 && placed[0].Tag == "head" &&
						placed[0].Preempted != nil && placed[0].Preempted.Tag == "victim":
					default:
						t.Fatalf("class-%d head: placed %+v, still queued %t", prio, placed, queued)
					}
				})
			}
		}
	}
}
