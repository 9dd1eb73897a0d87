package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/metrics"
	"mpmc/internal/threads"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// faultAt fails the at-th consultation of the injection seams (0: none)
// and counts every consultation.
type faultAt struct {
	calls, at atomic.Int64
}

var errSweepFault = errors.New("injected sweep fault")

func (fa *faultAt) intercept(site, key string) error {
	if n := fa.calls.Add(1); n == fa.at.Load() {
		return errSweepFault
	}
	return nil
}

// fired reports whether the armed fault was injected.
func (fa *faultAt) fired() bool {
	at := fa.at.Load()
	return at > 0 && fa.calls.Load() >= at
}

// sweepOp is one transactional operation of the rollback sweep: setup
// brings a fresh engine to the operation's starting state, and run is the
// operation (failing, too, when a fault-free run did not do its work).
type sweepOp struct {
	name  string
	setup func(ctx context.Context, e engine) error
	run   func(ctx context.Context, e engine) error
}

// sweepOps lists the operations; cap enforcement only with a cap (without
// one it returns before any step).
func sweepOps(capped bool) []sweepOp {
	fill := func(n int) func(ctx context.Context, e engine) error {
		return func(ctx context.Context, e engine) error {
			_, err := fillTagged(ctx, e, n)
			return err
		}
	}
	ops := []sweepOp{
		{"batch", fill(6), func(ctx context.Context, e engine) error {
			_, err := e.PlaceAll(ctx, cycle(11)[6:])
			return err
		}},
		{"group", fill(6), func(ctx context.Context, e engine) error {
			_, err := e.PlaceGroup(ctx, threads.GroupSpec{Base: workload.ByName("gzip"), Threads: 4, SharedFrac: 0.5, WriteFrac: 0.5})
			return err
		}},
		{"preemption", fill(16), func(ctx context.Context, e engine) error {
			p, err := e.PlaceWith(ctx, workload.ByName("mcf"), PlaceOptions{Priority: 2, Tag: "hi"})
			if err == nil && p.Preempted == nil {
				return errors.New("a class-2 arrival on a full fleet placed without preempting")
			}
			return err
		}},
		{"rebalance", func(ctx context.Context, e engine) error {
			// Two full machines and two idle ones: moving a resident off a
			// crowded cache is a real improvement.
			placed, err := fillTagged(ctx, e, 16)
			for _, p := range placed {
				if err == nil && (p.Node == "m2" || p.Node == "m3") {
					_, err = e.Remove(ctx, p.Node, p.Name)
				}
			}
			return err
		}, func(ctx context.Context, e engine) error {
			_, err := e.Rebalance(ctx, 0)
			return err
		}},
	}
	if !capped {
		return ops
	}
	return append(ops, sweepOp{"enforce-cap", func(ctx context.Context, e engine) error {
		if err := fill(8)(ctx, e); err != nil {
			return err
		}
		idle := 0.0
		for _, n := range wholeOf(e).nodes {
			idle += staticWatts(n)
		}
		return e.SetPowerCap(ctx, idle+(e.CapUsage()-idle)/2)
	}, func(ctx context.Context, e engine) error {
		rep, err := e.EnforceCap(ctx)
		if err == nil && rep.Downclocks+rep.Migrations == 0 {
			return errors.New("enforcement took no action")
		}
		return err
	}})
}

// fillTagged places n residents one by one, each tagged and of class 1, so
// the fleet keeps scheduler metadata for every one of them.
func fillTagged(ctx context.Context, e engine, n int) ([]Placed, error) {
	out := make([]Placed, 0, n)
	for i, s := range cycle(n) {
		p, err := e.PlaceWith(ctx, s, PlaceOptions{Priority: 1, Tag: fmt.Sprintf("r%d", i)})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// sweepView is what a rolled-back operation must leave as it was: every
// node's inspection row, the rungs, the ledger rows by bit pattern, and
// the journal, both flushed and staged.
type sweepView struct {
	rows, rungs, ledger, journal string
}

func sweepViewOf(t *testing.T, e engine, journal *[][]wal.Event) sweepView {
	t.Helper()
	var rows strings.Builder
	for _, ni := range e.Inspect() {
		fmt.Fprintf(&rows, "%s down=%v freq=%d prio=%v:", ni.Name, ni.Down, ni.Freq, ni.Priorities)
		for _, r := range ni.Residents {
			fmt.Fprintf(&rows, " %s@%d/%s/%p", r.Name, r.Core, r.Spec.Name, r.Feature)
		}
		rows.WriteByte('\n')
	}
	f := wholeOf(e)
	var ledger strings.Builder
	if f.capL != nil {
		names, ws := f.capL.copyRows(nil, nil)
		for i, k := range names {
			fmt.Fprintf(&ledger, "%s=%x ", k, math.Float64bits(ws[i]))
		}
	}
	f.mu.Lock()
	staged := append([]wal.Event(nil), f.jbuf...)
	f.mu.Unlock()
	j, err := json.Marshal(struct {
		Flushed [][]wal.Event
		Staged  []wal.Event
	}{*journal, staged})
	if err != nil {
		t.Fatal(err)
	}
	return sweepView{rows.String(), fmt.Sprint(e.FreqStates()), ledger.String(), string(j)}
}

// versionsOf reads every node's version stamp under the fleet lock.
func versionsOf(f *Fleet) []uint64 {
	f.lock()
	defer f.unlock()
	out := make([]uint64, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.version
	}
	return out
}

// TestRollbackSweep fails every fallible step of every transactional
// operation — batch, group, preemption, rebalance, cap enforcement — in
// turn, on a standalone and a sharded fleet, capped and uncapped: the k-th
// consultation of the injection seams fails, for k = 1, 2, ... until the
// operation runs clean. A failed operation must leave every inspection
// row (priorities included: residents carry metadata), rung, ledger row
// and journal byte as it was. And after every run,
// failed or not, each node whose version stamp moved must be in a touched
// set of the operation's transactions: a write that skipped touchLocked
// would escape the rollback.
func TestRollbackSweep(t *testing.T) {
	ctx := context.Background()
	policies := []Policy{LeastEnergy, CapAware}
	if testing.Short() {
		policies = policies[:1]
	}
	for _, policy := range policies {
		for _, capped := range []bool{false, true} {
			for _, sharded := range []bool{false, true} {
				for _, op := range sweepOps(capped) {
					name := fmt.Sprintf("%s/cap=%v/sharded=%v/%s", policy, capped, sharded, op.name)
					t.Run(name, func(t *testing.T) {
						for k := int64(1); ; k++ {
							if clean := sweepOnce(t, ctx, policy, capped, sharded, op, k); clean {
								if k == 1 {
									t.Fatal("the operation consulted no seam; the sweep injected nothing")
								}
								return
							}
							if k > 500 {
								t.Fatal("no clean run after 500 injected faults")
							}
						}
					})
				}
			}
		}
	}
}

// sweepOnce builds a fresh engine, runs op with the k-th seam consultation
// failing, and checks the rollback and touched-set contracts. It reports
// whether the run was clean (the fault was never reached).
func sweepOnce(t *testing.T, ctx context.Context, policy Policy, capped, sharded bool, op sweepOp, k int64) bool {
	t.Helper()
	faults := &faultAt{}
	var journal [][]wal.Event
	cfg := Config{
		Policy: policy, QueueCap: 4, Seed: 1, Workers: 1,
		Profile: oracle(nil, 0), Registry: metrics.NewRegistry(),
		Intercept: faults.intercept,
		Journal:   func(events []wal.Event) { journal = append(journal, append([]wal.Event(nil), events...)) },
	}
	if capped {
		cfg.PowerCap = 1e4
	}
	// Two workstations and two laptops: under least-energy, enforcement
	// both down-clocks and migrates onto the cheaper machines.
	for _, m := range []func() *machine.Machine{
		machine.TwoCoreWorkstation, machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.TwoCoreLaptop,
	} {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{Machine: m(), Power: testPower(t), MaxPerCore: 2})
	}
	var e engine
	var err error
	if sharded {
		e, err = NewSharded(cfg, 2)
	} else {
		e, err = New(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := op.setup(ctx, e); err != nil {
		t.Fatalf("setup: %v", err)
	}
	f := wholeOf(e)
	touched := map[*node]bool{}
	f.onTxnClose = func(tx *txn) {
		for _, tn := range tx.touched {
			touched[tn.n] = true
		}
	}
	before, vers := sweepViewOf(t, e, &journal), versionsOf(f)
	faults.calls.Store(0)
	faults.at.Store(k)
	err = op.run(ctx, e)
	fired := faults.fired()
	faults.at.Store(0)

	for i, v := range versionsOf(f) {
		if n := f.nodes[i]; v != vers[i] && !touched[n] {
			t.Errorf("k=%d: %s's version moved %d → %d outside every touched set", k, n.cfg.Name, vers[i], v)
		}
	}
	switch {
	case !fired && err != nil:
		t.Fatalf("k=%d: fault-free run failed: %v", k, err)
	case !fired:
		return true
	case !errors.Is(err, errSweepFault):
		t.Fatalf("k=%d: injected fault surfaced as %v", k, err)
	}
	if after := sweepViewOf(t, e, &journal); after != before {
		t.Fatalf("k=%d: rolled-back %s changed the fleet:\nbefore %+v\nafter  %+v", k, op.name, before, after)
	}
	return false
}
