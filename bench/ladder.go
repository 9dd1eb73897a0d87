package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/server"
	"mpmc/internal/stats"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// The traced run of a serve workload. Nothing inside the binary is
// instrumented, so the layers are separated by replaying the same seeded
// single-connection request stream at each depth of the stack -- the live
// binary over loopback, server.Handler() in-process, the sharded fleet
// engine -- and by timing the calls the engine makes into manager, sched,
// core and hist on the state the replay leaves behind.

// serveFleetConfig is the fleet cmd/serve -synthetic builds from sp.args.
func serveFleetConfig(sp serveSpec, reg *metrics.Registry) (fleet.Config, error) {
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return fleet.Config{}, err
	}
	var nodes []fleet.NodeConfig
	for _, preset := range strings.Split(fleetFlag(), ",") {
		m, err := cli.MachineByName(preset)
		if err != nil {
			return fleet.Config{}, err
		}
		nodes = append(nodes, fleet.NodeConfig{Machine: m, Power: pm, MaxPerCore: 2})
	}
	cfg := fleet.Config{
		Nodes: nodes, Policy: fleet.LeastDegradation, QueueCap: 16,
		Seed: 1, Quick: true, Registry: reg, Profile: truthProfile,
	}
	if sp.cold {
		cfg.Policy, cfg.PowerCap, cfg.ScoreCacheCap = fleet.CapAware, neverBinding, -1
	}
	return cfg, nil
}

// engineRun describes one single-threaded replay against a fleet engine.
type engineRun struct {
	cfg    fleet.Config
	shards int  // > 1 builds fleet.Sharded
	cold   bool // request mix
	seed   int64
	ops    int
	budget int
	single bool   // one-bench placements use PlaceWith, not PlaceAll
	metric string // what the replay's place latency is reported as
	// byName resolves benchmark names (nil = workload.ByName, as the
	// handlers do).
	byName func(string) *workload.Spec
}

func (r engineRun) backend(e engine) engineBackend {
	byName := r.byName
	if byName == nil {
		byName = workload.ByName
	}
	return engineBackend{e: e, single: r.single, byName: byName}
}

func (r engineRun) build(capture *[][]wal.Event) (engine, error) {
	cfg := r.cfg
	if capture != nil {
		cfg.Journal = func(ev []wal.Event) {
			*capture = append(*capture, append([]wal.Event(nil), ev...))
		}
	}
	if r.shards > 1 {
		return fleet.NewSharded(cfg, r.shards)
	}
	return fleet.New(cfg)
}

// replayed is what one replay measured.
type replayed struct {
	eng    engine
	rec    *phaseRec
	allocs float64 // heap allocations per operation, removals included
	ids    []int   // span of each operation
	// batches are the journal batches a capturing replay saw, the first
	// fillBatches of them from the fill.
	batches     [][]wal.Event
	fillBatches int
}

func (p *replayed) kind(k reqKind) []float64 {
	var out []float64
	for i, v := range p.rec.opUS {
		if p.rec.kinds[i] == k {
			out = append(out, v)
		}
	}
	return out
}

// replayOn fills a fresh client over be to its budget, calls filled, and
// then times ops operations, closed loop on one goroutine.
func replayOn(ctx context.Context, be backend, r engineRun, filled func(), tr *tracer, span string, parents []int) (*replayed, error) {
	c := &client{be: be, st: newStream(r.seed*1000, r.cold), budget: r.budget}
	if err := c.fill(ctx); err != nil {
		return nil, err
	}
	if filled != nil {
		filled()
	}
	// Earlier replays' engines are garbage by now; collect it off the clock
	// so this replay does not pay for their heap.
	runtime.GC()
	c.tr, c.span, c.parents = tr, span, parents
	rec := &phaseRec{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.closedLoop(ctx, time.Now(), time.Hour, r.ops, rec)
	runtime.ReadMemStats(&m1)
	if c.firstErr != nil {
		return nil, fmt.Errorf("%s replay: %w", span, c.firstErr)
	}
	return &replayed{rec: rec, ids: c.ids, allocs: float64(m1.Mallocs-m0.Mallocs) / float64(r.ops)}, nil
}

// replayEngine replays against a freshly built engine. With capture it
// keeps the journal batches of the timed operations.
func replayEngine(ctx context.Context, r engineRun, capture bool, tr *tracer, span string, parents []int) (*replayed, error) {
	var batches [][]wal.Event
	var sink *[][]wal.Event
	if capture {
		sink = &batches
	}
	eng, err := r.build(sink)
	if err != nil {
		return nil, err
	}
	fillBatches := 0
	p, err := replayOn(ctx, r.backend(eng), r,
		func() { fillBatches = len(batches) }, tr, span, parents)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	p.batches, p.fillBatches = batches, fillBatches
	return p, nil
}

// engineRungs replays the stream against the engine as the workload drives
// it, then without the memo stack, then on the unsharded engine for the
// counters only it exposes.
func engineRungs(ctx context.Context, o *outcome, r engineRun, capture bool, tr *tracer, parents []int) (*replayed, error) {
	main, err := replayEngine(ctx, r, capture, tr, strings.TrimSuffix(r.metric, "_us"), parents)
	if err != nil {
		return nil, err
	}
	o.vals[r.metric] = median(main.rec.opUS)
	if g := main.kind(kindGroup); len(g) > 0 {
		o.vals["fleet.place_group_us"] = median(g)
	}
	o.vals["fleet.remove_us"] = median(main.rec.unplaceUS)
	o.vals["fleet.allocs_per_place"] = main.allocs
	state, err := timeEach(10, func(int) error {
		_, err := main.eng.State(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.vals["fleet.state_us"] = median(state)

	cold := r
	cold.cfg.ScoreCacheCap = -1
	nomemo, err := replayEngine(ctx, cold, false, nil, "", nil)
	if err != nil {
		return nil, err
	}
	o.vals["fleet.place_nomemo_us"] = median(nomemo.rec.opUS)

	// SolverInvocations and the memo counters exist on *fleet.Fleet only.
	// Decisions are shard-count-invariant, so the unsharded engine fed the
	// same stream does the same solves.
	flat := r
	flat.shards = 0
	eng, err := flat.build(nil)
	if err != nil {
		return nil, err
	}
	f := eng.(*fleet.Fleet)
	c := &client{be: r.backend(f), st: newStream(r.seed*1000, r.cold), budget: r.budget}
	if err := c.fill(ctx); err != nil {
		return nil, err
	}
	solves0, sc0, ss0 := f.SolverInvocations(), f.ScoreCacheStats(), f.SolverStateStats()
	c.closedLoop(ctx, time.Now(), time.Hour, r.ops, nil)
	if c.firstErr != nil {
		return nil, fmt.Errorf("counter replay: %w", c.firstErr)
	}
	solves1, sc1, ss1 := f.SolverInvocations(), f.ScoreCacheStats(), f.SolverStateStats()
	o.vals["fleet.solves_per_op"] = float64(solves1-solves0) / float64(r.ops)
	hits := float64(sc1.Hits - sc0.Hits + sc1.DecisionHits - sc0.DecisionHits)
	if total := hits + float64(sc1.Misses-sc0.Misses+sc1.Shared-sc0.Shared+sc1.DecisionMisses-sc0.DecisionMisses); total > 0 {
		o.vals["fleet.score_cache_hit_frac"] = hits / total
	}
	if total := float64(ss1.Hits - ss0.Hits + ss1.Misses - ss0.Misses); total > 0 {
		o.vals["core.solver_state_hit_frac"] = float64(ss1.Hits-ss0.Hits) / total
	}
	return main, nil
}

// traceServe is the traced run of a serve workload.
func traceServe(ctx context.Context, e *env, sp serveSpec, seed int64, seconds float64) (*outcome, error) {
	if err := e.buildServe(); err != nil {
		return nil, err
	}
	o := &outcome{vals: values{"loadgen.build_s": e.buildS}}
	if err := loadgenQualifiers(ctx, e, sp, seed, seconds, o); err != nil {
		return nil, err
	}

	// Top rung: the live binary, one connection, closed loop: first traced
	// for a fixed time, then the same number of operations untraced.
	tr := newTracer()
	budget := int(fleetOccupancy * fleetSlots)
	live, _, err := e.startFilled(ctx, sp, seed, 1)
	if err != nil {
		return nil, err
	}
	defer live.stop()
	liveFilled, _, err := live.fleetState(ctx)
	if err != nil {
		return nil, err
	}
	lc := live.clients[0]
	lc.tr, lc.span = tr, "serve.request"
	before, err := live.child.scrape(ctx, requestSamples...)
	if err != nil {
		return nil, err
	}
	top := &phaseRec{}
	t0 := time.Now()
	lc.closedLoop(ctx, t0, time.Duration(seconds*0.15*float64(time.Second)), 0, top)
	tracedWall := time.Since(t0).Seconds()
	after, err := live.child.scrape(ctx, requestSamples...)
	if err != nil {
		return nil, err
	}
	n := top.ops
	if n == 0 {
		live.counts(o)
		o.problemf("the ladder's top rung completed no operation")
		return o, nil
	}
	topIDs := lc.ids
	lc.tr = nil
	t1 := time.Now()
	lc.closedLoop(ctx, t1, time.Hour, n, &phaseRec{})
	o.vals["loadgen.trace_overhead_frac"] = 1 - time.Since(t1).Seconds()/tracedWall

	scraped := func(endpoints ...string) (sum, count float64) {
		for _, ep := range endpoints {
			sum += after[reqSum(ep)] - before[reqSum(ep)]
			count += after[reqCount(ep)] - before[reqCount(ep)]
		}
		return sum, count
	}
	for _, ep := range []string{"fleet_place", "fleet_unplace", "fleet_state"} {
		if sum, count := scraped(ep); count > 0 {
			o.vals["server.request_mean_us."+ep] = sum / count * 1e6
		}
	}
	// Mean handler time per operation of the mix, as the binary itself
	// measured it: the live counterpart of the in-process handler rung.
	liveSum, _ := scraped("fleet_place", "fleet_state", "fleet_ticket")
	liveMean := liveSum / float64(n) * 1e6
	t0us := median(top.opUS)

	if sp.durable {
		if live.copyTo, err = e.tempDir("state-copy-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(live.copyTo)
	}
	live.check(ctx, e, o)
	if sp.durable {
		if err := recoveryLayers(ctx, live, o); err != nil {
			return nil, err
		}
	}

	// Handler rung: server.Handler() on a recorder, same bodies.
	run := engineRun{shards: fleetShards, cold: sp.cold, seed: seed, ops: n, budget: budget, metric: "fleet.place_all_us"}
	reg := metrics.NewRegistry()
	if run.cfg, err = serveFleetConfig(sp, reg); err != nil {
		return nil, err
	}
	eng, err := run.build(nil)
	if err != nil {
		return nil, err
	}
	// The binary logs every request to its stderr, a file here; the replay
	// pays for the same write.
	logf, err := os.Create(filepath.Join(e.out, "handler-"+sp.name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	srv, err := server.New(server.Config{
		Machine: run.cfg.Nodes[1].Machine, Power: run.cfg.Nodes[1].Power, // -machine server, the default
		Profile: truthProfile, Seed: 1, Quick: true, Policy: manager.PowerAware,
		Logger: slog.New(slog.NewJSONHandler(logf, nil)), Registry: reg, Fleet: eng,
	})
	if err != nil {
		return nil, err
	}
	hb := handlerBackend{srv.Handler()}
	handler, err := replayOn(ctx, hb, run, func() {
		// serveFleetConfig repeats by hand what cmd/serve builds from its
		// flags. Filled by the same requests, the two fleets must be in the
		// same state; if they are not, the rungs below measure another fleet.
		_, replayFilled, err := hb.do(ctx, http.MethodGet, "/v1/fleet/state", nil)
		if err != nil || !bytes.Equal(replayFilled, liveFilled) {
			o.problemf("after the same fill the replay's fleet state differs from the binary's (%d vs %d bytes, %v): serveFleetConfig no longer matches cmd/serve", len(replayFilled), len(liveFilled), err)
		}
	}, tr, "server.handler", topIDs)
	if err != nil {
		return nil, err
	}
	t1us := median(handler.rec.opUS)
	o.vals["server.handler_us"] = t1us
	// The binary exposes its handler time only as sum and count. Its mean
	// beyond the replay's mean is handler time the replay does not
	// reproduce (a process whose caches the client's round trips cool,
	// GC beside live connections); what is left of the round trip after
	// the live handler is the cost of HTTP over loopback.
	liveGap := liveMean - stats.Mean(handler.rec.opUS)
	o.vals["serve.http_overhead_us"] = t0us - t1us - liveGap
	o.vals["server.allocs_per_req"] = handler.allocs
	if tk := handler.kind(kindAsync); len(tk) > 0 {
		o.vals["server.ticket_us"] = median(tk)
	}

	// Engine rung and below.
	run.cfg.Registry = nil
	main, err := engineRungs(ctx, o, run, sp.durable, tr, handler.ids)
	if err != nil {
		return nil, err
	}
	t2us := o.vals["fleet.place_all_us"]
	o.vals["server.handler_self_us"] = t1us - t2us
	single := run
	single.single, single.metric = true, "fleet.place_us"
	viaPlace, err := replayEngine(ctx, single, false, nil, "", nil)
	if err != nil {
		return nil, err
	}
	o.vals["fleet.place_us"] = median(viaPlace.rec.opUS)

	if err := walLayer(e, main.batches, main.fillBatches, n, o); err != nil {
		return nil, err
	}
	ins := main.eng.Inspect()
	pm := run.cfg.Nodes[0].Power
	if err := managerLayer(ctx, ins, pm, o); err != nil {
		return nil, err
	}
	if err := schedLayer(ctx, ins, nil, 0, o); err != nil {
		return nil, err
	}
	if err := coreLayer(ctx, ins, pm, o); err != nil {
		return nil, err
	}
	histLayer(ins, o)
	if sp.cold {
		if err := threadsLayer(o); err != nil {
			return nil, err
		}
	}
	for _, p := range checkNodes(ctx, ins) {
		o.problemf("%s", p)
	}

	// What one operation of the stream spends in each callee of the
	// engine. The sync handler's PlaceAll snapshots every node's manager
	// before it decides; each instance placed is one decision, one PlaceAt
	// and (durable) one journal batch; executed solves are the memo
	// misses; and of a solve, one MPA lookup per member of the two-core
	// cache group is the least the answer needs -- the solver's own
	// iterations cannot be told apart from outside and stay with core.
	perOp := float64(main.rec.placed) / float64(n)
	placing := 0.0
	for _, k := range main.rec.kinds {
		if k != kindState {
			placing++
		}
	}
	rows := ladder("serve.request", []rung{
		{"serve.request", t0us, []string{"server.handler"}},
		{"server.handler", t1us, []string{"fleet.place_all"}},
		{"fleet.place_all", t2us, []string{"wal.append", "manager", "sched.decide", "core.solve"}},
		{"wal.append", placing / float64(n) * o.vals["wal.append_us"], nil},
		{"manager", float64(len(ins))*o.vals["manager.snapshot_us"] + perOp*o.vals["manager.place_at_us"], nil},
		{"sched.decide", perOp * o.vals["sched.decide_us.n24"], nil},
		{"core.solve", o.vals["fleet.solves_per_op"] * o.vals["core.solve_cold_us"], []string{"hist.mpa"}},
		{"hist.mpa", o.vals["fleet.solves_per_op"] * 2 * o.vals["hist.mpa_ns"] / 1e3, nil},
	})
	// Handler time the live binary reports beyond what the replay
	// reproduces is not loopback cost and belongs to no layer: move it from
	// the top row to unattributed.
	rows[0].Selfus -= liveGap
	rows[len(rows)-1].Selfus += liveGap
	printLadder(os.Stderr, sp.name+" ladder: one operation of the stream, median, single connection", t0us, rows)
	if err := tr.write(tracePath(e, sp.name)); err != nil {
		return nil, err
	}
	return o, nil
}

// requestSamples are the request_seconds sums and counts the ladder reads.
var requestSamples = func() []string {
	var out []string
	for _, ep := range []string{"fleet_place", "fleet_unplace", "fleet_state", "fleet_ticket"} {
		out = append(out, reqSum(ep), reqCount(ep))
	}
	return out
}()

func reqSum(endpoint string) string {
	return fmt.Sprintf("request_seconds_sum{endpoint=%q}", endpoint)
}

func reqCount(endpoint string) string {
	return fmt.Sprintf("request_seconds_count{endpoint=%q}", endpoint)
}

// satWindow is the width, in seconds, of the windows whose median rate is
// the closed loop's throughput.
const satWindow = 0.25

// loadgenQualifiers runs a short phase A and phase B on the usual number
// of connections and reports the numbers that qualify the end-to-end ones:
// how late the generator ran, the tail, saturation throughput, and how
// often concurrent commits collided.
func loadgenQualifiers(ctx context.Context, e *env, sp serveSpec, seed int64, seconds float64, o *outcome) error {
	n := connections()
	r, _, err := e.startFilled(ctx, sp, seed, n)
	if err != nil {
		return err
	}
	defer r.stop()
	phase := time.Duration(seconds * 0.2 * float64(time.Second))
	a := r.phaseA(ctx, phase)
	late, lat := sorted(a.lateUS), sorted(a.opUS)
	o.vals["loadgen.late_p50_us"] = quantile(late, 0.5)
	o.vals["loadgen.late_p99_us"] = quantile(late, 0.99)
	o.vals["loadgen.op_p99_us"] = quantile(lat, 0.99)
	o.vals["loadgen.samples"] = float64(a.ops)
	o.vals["loadgen.unplace_p50_us"] = median(a.unplaceUS)

	before, err := r.child.scrape(ctx, "fleet_shard_conflict_total")
	if err != nil {
		return err
	}
	start := time.Now()
	b := runClients(r.clients, func(_ int, c *client) *phaseRec {
		rec := &phaseRec{}
		c.closedLoop(ctx, start, phase, 0, rec)
		return rec
	})
	after, err := r.child.scrape(ctx, "fleet_shard_conflict_total")
	if err != nil {
		return err
	}
	o.vals["loadgen.sat_ops_per_s"] = windowRate(b.done, satWindow)
	if b.ops > 0 {
		o.vals["fleet.conflicts_per_kop"] = (after["fleet_shard_conflict_total"] - before["fleet_shard_conflict_total"]) * 1000 / float64(b.ops)
	}
	logPhase(sp.name, "A open", a)
	logPhase(sp.name, "B closed", b)
	r.counts(o)
	return nil
}

// recoveryLayers measures recovery in-process on the copy of the state
// directory the killed child left: replaying the log (wal.Open) and
// re-adopting the residents (Sharded.Recover).
func recoveryLayers(ctx context.Context, live *serveRun, o *outcome) error {
	start := time.Now()
	l, st, err := wal.Open(live.copyTo)
	if err != nil {
		return err
	}
	o.vals["wal.open_ms"] = us(time.Since(start)) / 1e3
	if err := l.Close(); err != nil {
		return err
	}
	cfg, err := serveFleetConfig(live.sp, nil)
	if err != nil {
		return err
	}
	eng, err := fleet.NewSharded(cfg, fleetShards)
	if err != nil {
		return err
	}
	start = time.Now()
	if err := eng.Recover(ctx, st); err != nil {
		return err
	}
	o.vals["fleet.recover_ms"] = us(time.Since(start)) / 1e3
	return nil
}
