package chaos

// Kill/restart fault class: a seeded mutation storm journals every
// fleet operation to a real on-disk WAL, the process "dies" (no
// compaction, no clean close, sometimes a torn final record), and a
// freshly built fleet recovers from the directory. The sweep asserts
// the WAL's whole-record durability unit — recovered state is always
// "before the last operation" or "after it", never between — and that
// recovery reproduces the fleet byte-identically: same /v1/fleet/state
// JSON, same invariants, still serving.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
	"mpmc/internal/xrand"
)

// krBackend is the mutation surface the storm drives; *fleet.Fleet and
// *fleet.Sharded both satisfy it.
type krBackend interface {
	Place(ctx context.Context, spec *workload.Spec) (fleet.Placed, error)
	PlaceWith(ctx context.Context, spec *workload.Spec, opts fleet.PlaceOptions) (fleet.Placed, error)
	SubmitWith(spec *workload.Spec, tag string, priority int) (int, error)
	CancelQueued(ticket int) bool
	Pump(ctx context.Context) ([]fleet.Placed, error)
	Remove(ctx context.Context, node, instance string) ([]fleet.Placed, error)
	FailNode(name string) ([]manager.Resident, error)
	RestoreNode(ctx context.Context, name string) ([]fleet.Placed, error)
	Rebalance(ctx context.Context, minImprovement float64) (fleet.Move, error)
	Inspect() []fleet.NodeInspection
	QueueDepth() int
	State(ctx context.Context) (*fleet.State, error)
	Recover(ctx context.Context, st *wal.State) error
	EnforceCap(ctx context.Context) (fleet.CapReport, error)
	CapUsage() float64
	FreqStates() map[string]int
	Totals(ctx context.Context) (spi, watts float64, err error)
}

// krPool is the workload draw for the storm.
var krPool = []string{"gzip", "vpr", "mcf", "bzip2", "twolf", "art", "equake", "ammp", "swim", "applu"}

// buildKRFleet constructs the storm's fleet: identical configuration for
// the pre-crash and the recovered instance, so any observable divergence
// is recovery's fault.
func buildKRFleet(t *testing.T, shards int, journal func([]wal.Event)) krBackend {
	t.Helper()
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []fleet.NodeConfig
	for i := 0; i < 5; i++ {
		nodes = append(nodes, fleet.NodeConfig{
			Name: fmt.Sprintf("m%d", i), Machine: machine.TwoCoreWorkstation(), Power: pm, MaxPerCore: 2,
		})
	}
	cfg := fleet.Config{
		Nodes:    nodes,
		Policy:   fleet.LeastDegradation,
		QueueCap: 8,
		// The watt budget is an operator knob (config/flag), not a journaled
		// fact, so pre-crash and recovered instances carry the same cap and
		// recovery only has to reinstate rungs and ledger rows. The five
		// machines idle at 50 W and each resident adds about a milliwatt, so
		// 50.004 W binds once the fleet is a few residents deep: the storm
		// fills machines, hits the budget (priority arrivals then preempt on
		// watts as well as on slots), and enforcement really down-clocks
		// (journaling EvFreq records recovery must replay).
		PowerCap: 50.004,
		Profile: func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
		Journal: journal,
	}
	if shards > 1 {
		s, err := fleet.NewSharded(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestKillRestartRecovery(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	// The storm's priority arrivals must leave the sharded lane (even
	// seeds) recovering requeued preemption victims — tickets minted under
	// every shard lock, consumed by the optimistic pump — or the sweep
	// stopped covering them.
	shardedVictims := 0
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if queued := runKillRestart(t, seed); seed%2 == 0 {
				shardedVictims += queued
			}
		})
	}
	if !t.Failed() && shardedVictims == 0 {
		t.Error("no sharded seed recovered a queue holding a requeued preemption victim")
	}
}

// runKillRestart runs one seed and reports how many requeued preemption
// victims the recovered queue held.
func runKillRestart(t *testing.T, seed uint64) (victimsQueued int) {
	ctx := context.Background()
	rng := xrand.New(seed)
	dir := t.TempDir()

	log1, st0, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st0.Residents) != 0 || len(st0.Queue) != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", st0)
	}

	// The journal mirror: every batch deep-copied (the fleet reuses its
	// buffer) with its on-disk record length, so the sweep can predict
	// exactly which whole records survive a torn tail.
	var batches [][]wal.Event
	var recLens []int
	journal := func(events []wal.Event) {
		cp := append([]wal.Event(nil), events...)
		if err := log1.Append(cp); err != nil {
			t.Errorf("append: %v", err)
		}
		payload, err := json.Marshal(cp)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		batches = append(batches, cp)
		recLens = append(recLens, 8+len(payload)) // uint32 len + uint32 crc + payload
	}

	shards := 1
	if seed%2 == 0 {
		shards = 2
	}
	f1 := buildKRFleet(t, shards, journal)

	// The storm: a seeded mix of every journaled mutation. Individual
	// operations may legitimately fail (full fleet, full queue, node
	// down, no rebalance improvement) — the journal only records what
	// committed, which is exactly what recovery must reproduce.
	var tickets []int
	ops := 30 + rng.Intn(30)
	for op := 0; op < ops; op++ {
		spec := workload.ByName(krPool[rng.Intn(len(krPool))])
		switch r := rng.Float64(); {
		case r < 0.30:
			_, _ = f1.Place(ctx, spec)
		case r < 0.40:
			// A priority arrival: on a full (or watt-bound) fleet it evicts a
			// lower class, and the victim re-enters the queue under a ticket
			// the journal must carry across the kill.
			_, _ = f1.PlaceWith(ctx, spec, fleet.PlaceOptions{Tag: fmt.Sprintf("p%d", op), Priority: 1 + rng.Intn(2)})
		case r < 0.55:
			if tk, err := f1.SubmitWith(spec, fmt.Sprintf("t%d", op), rng.Intn(3)); err == nil {
				tickets = append(tickets, tk)
			}
		case r < 0.65:
			_, _ = f1.Pump(ctx)
		case r < 0.80:
			ins := f1.Inspect()
			ni := ins[rng.Intn(len(ins))]
			if len(ni.Residents) > 0 {
				_, _ = f1.Remove(ctx, ni.Name, ni.Residents[rng.Intn(len(ni.Residents))].Name)
			}
		case r < 0.85:
			if len(tickets) > 0 {
				f1.CancelQueued(tickets[rng.Intn(len(tickets))])
			}
		case r < 0.90:
			_, _ = f1.FailNode(fmt.Sprintf("m%d", rng.Intn(5)))
		case r < 0.95:
			_, _ = f1.RestoreNode(ctx, fmt.Sprintf("m%d", rng.Intn(5)))
		case r < 0.975:
			_, _ = f1.EnforceCap(ctx)
		default:
			_, _ = f1.Rebalance(ctx, 0)
		}
	}

	preState, err := f1.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	preJSON, err := json.Marshal(preState)
	if err != nil {
		t.Fatal(err)
	}

	// The kill: no Close, no Compact. Half the seeds additionally tear
	// the final record mid-write.
	logPath := filepath.Join(dir, "events.0.wal")
	survivors := len(batches)
	if len(recLens) > 0 && rng.Float64() < 0.5 {
		torn := 1 + rng.Intn(recLens[len(recLens)-1])
		info, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(logPath, info.Size()-int64(torn)); err != nil {
			t.Fatal(err)
		}
		survivors--
	}

	// The restart.
	log2, st2, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	expected := &wal.State{}
	for _, b := range batches[:survivors] {
		for _, e := range b {
			if err := expected.Apply(e); err != nil {
				t.Fatalf("shadow apply: %v", err)
			}
		}
	}
	requeued := map[int]bool{}
	for _, b := range batches[:survivors] {
		for _, e := range b {
			if e.Type == wal.EvPreempted && e.Requeued {
				requeued[e.Ticket] = true
			}
		}
	}
	for _, q := range expected.Queue {
		if requeued[q.Ticket] {
			victimsQueued++
		}
	}
	gotJSON, _ := json.Marshal(st2)
	wantJSON, _ := json.Marshal(expected)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("recovered WAL state diverged from the surviving records:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	f2 := buildKRFleet(t, shards, func(events []wal.Event) {
		if err := log2.Append(events); err != nil {
			t.Errorf("post-recovery append: %v", err)
		}
	})
	if err := f2.Recover(ctx, st2); err != nil {
		t.Fatalf("recover: %v", err)
	}

	// Cap conservation across the crash: rungs replay from EvFreq records
	// and the ledger rebuilds from fresh estimates, so the recovered
	// tracked draw must agree with a live fleet-wide estimate, and on
	// full-history seeds the recovered rungs match the pre-crash ones
	// exactly.
	if survivors == len(batches) {
		pre, post := f1.FreqStates(), f2.FreqStates()
		preStr, _ := json.Marshal(pre)
		postStr, _ := json.Marshal(post)
		if string(preStr) != string(postStr) {
			t.Fatalf("recovered DVFS rungs diverged:\n pre %s\npost %s", preStr, postStr)
		}
	}
	if _, watts, err := f2.Totals(ctx); err != nil {
		t.Fatal(err)
	} else if usage := f2.CapUsage(); usage < watts-1e-6 || usage > watts+1e-6 {
		t.Fatalf("recovered ledger %.9g W drifts from fresh estimate %.9g W", usage, watts)
	}
	// Full-history seeds (no torn tail, and the last operation may have
	// been a no-op anyway): the recovered serving state must be
	// byte-identical to the pre-crash /v1/fleet/state payload.
	if survivors == len(batches) {
		postState, err := f2.State(ctx)
		if err != nil {
			t.Fatal(err)
		}
		postJSON, err := json.Marshal(postState)
		if err != nil {
			t.Fatal(err)
		}
		if string(preJSON) != string(postJSON) {
			t.Fatalf("recovered state not byte-identical:\n pre %s\npost %s", preJSON, postJSON)
		}
	}

	// Model invariants hold on the recovered fleet.
	if ff, ok := f2.(*fleet.Fleet); ok {
		checker := &Checker{}
		if vs := checker.CheckFleet(ctx, ff); len(vs) > 0 {
			t.Fatalf("invariant violations after recovery: %v", vs)
		}
	}

	// An enforcement pass on the recovered fleet restores the budget even
	// when the crash interrupted one (or a restore re-added idle draw).
	// Runs after the byte-identity comparison above — it may re-clock.
	if rep, err := f2.EnforceCap(ctx); err != nil {
		t.Fatalf("enforce after recovery: %v", err)
	} else if rep.Satisfied && f2.CapUsage() > rep.Cap*(1+1e-9) {
		t.Fatalf("satisfied enforcement left usage %.9g above cap %.9g", f2.CapUsage(), rep.Cap)
	}

	// The recovered fleet keeps serving and journaling: pump whatever
	// queue survived, compact, and a third open sees the compacted
	// state with nothing lost.
	if _, err := f2.Pump(ctx); err != nil {
		t.Fatalf("pump after recovery: %v", err)
	}
	if err := log2.Compact(); err != nil {
		t.Fatal(err)
	}
	log3, st3, err := wal.Open(dir)
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer log3.Close()
	if len(st3.Residents) < len(st2.Residents) {
		t.Fatalf("compaction lost residents: %d -> %d", len(st2.Residents), len(st3.Residents))
	}
	if st3.Seq < st2.Seq {
		t.Fatalf("compaction regressed ticket seq: %d -> %d", st2.Seq, st3.Seq)
	}
	return victimsQueued
}
