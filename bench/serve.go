package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mpmc/internal/fleet"
)

// serveSpec is one of the three workloads that drive the real cmd/serve
// binary over loopback.
type serveSpec struct {
	name    string
	cold    bool    // cap-aware policy, no score memo, and the mixed request stream
	durable bool    // -state-dir, and a SIGKILL/restart at the end
	rate    float64 // phase-A operations per second, all connections together
}

// The phase-A rates are about 40 % of what the binary sustains closed-loop
// in the 2-core sandbox the benchmark was sized in. They are frozen: a
// later change must not retune them, or latencies stop being comparable.
var serveSpecs = map[string]serveSpec{
	"serve_warm":    {name: "serve_warm", rate: 800},
	"serve_durable": {name: "serve_durable", durable: true, rate: 800},
	"serve_cold":    {name: "serve_cold", cold: true, rate: 140},
}

const (
	fleetPresets   = "workstation,server,laptop"
	fleetCopies    = 8 // 24 machines, 128 slots at the default 2 per core
	fleetShards    = 4
	fleetSlots     = 128
	fleetOccupancy = 0.75
	neverBinding   = 100000 // watts; engages the cap ledger without ever rejecting
)

// A run sets up at least setupMin times, and then again until it has set
// up setupMax times or spent setupBudget doing so; setup_s is the median.
// (Variables so that the smoke test can do it once.)
var (
	setupMin    = 3
	setupMax    = 15
	setupBudget = 1500 * time.Millisecond
)

// setupDone reports whether n set-ups taking spent in all are enough.
func setupDone(n int, spent time.Duration) bool {
	return n >= setupMax || (n >= setupMin && spent >= setupBudget)
}

func fleetFlag() string {
	return strings.TrimSuffix(strings.Repeat(fleetPresets+",", fleetCopies), ",")
}

// connections is how many keep-alive connections (and goroutines) generate
// load: never more than the CPUs, and two at most.
func connections() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func (sp serveSpec) args(stateDir string) []string {
	args := []string{"-fleet", fleetFlag(), "-shards", fmt.Sprint(fleetShards)}
	if sp.cold {
		args = append(args, "-fleet-policy", "cap-aware", "-fleet-cap", fmt.Sprint(neverBinding), "-score-cache", "-1")
	}
	if sp.durable {
		args = append(args, "-state-dir", stateDir)
	}
	return args
}

// serveRun is one started, filled binary with its clients.
type serveRun struct {
	sp       serveSpec
	child    *child
	clients  []*client
	backends []*httpBackend
	stateDir string
	// copyTo, when set, receives a copy of the state directory as the
	// killed child left it, for the recovery layers to measure on.
	copyTo string
}

// newClients makes n clients over fresh connections; client i draws its
// requests from seed*1000+i.
func newClients(base string, sp serveSpec, seed int64, n int) ([]*client, []*httpBackend) {
	clients := make([]*client, n)
	backends := make([]*httpBackend, n)
	budget := int(fleetOccupancy*fleetSlots) / n
	for i := range clients {
		backends[i] = newHTTPBackend(base)
		clients[i] = &client{be: backends[i], st: newStream(seed*1000+int64(i), sp.cold), budget: budget}
	}
	return clients, backends
}

// startFilled starts a fresh binary and fills the fleet to occupancy over
// n connections. It returns how long that took: exec to first healthy
// answer, plus the fill.
func (e *env) startFilled(ctx context.Context, sp serveSpec, seed int64, n int) (*serveRun, float64, error) {
	r := &serveRun{sp: sp}
	if sp.durable {
		dir, err := e.tempDir("state-")
		if err != nil {
			return nil, 0, err
		}
		r.stateDir = dir
	}
	start := time.Now()
	c, err := e.startServe(sp.name, sp.args(r.stateDir)...)
	if err != nil {
		return nil, 0, err
	}
	r.child = c
	r.clients, r.backends = newClients(c.base, sp, seed, n)
	for _, cl := range r.clients {
		if err := cl.fill(ctx); err != nil {
			r.stop()
			return nil, 0, err
		}
	}
	return r, time.Since(start).Seconds(), nil
}

func (r *serveRun) stop() {
	for _, b := range r.backends {
		b.close()
	}
	r.child.kill()
	if r.stateDir != "" {
		os.RemoveAll(r.stateDir)
	}
}

// setUp starts and fills the binary several times and keeps the last one
// running; the set-up time is the median, so one slow exec does not decide it.
func (e *env) setUp(ctx context.Context, sp serveSpec, seed int64, n int) (*serveRun, float64, error) {
	var times []float64
	start := time.Now()
	for {
		r, t, err := e.startFilled(ctx, sp, seed, n)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, t)
		if setupDone(len(times), time.Since(start)) {
			return r, median(times), nil
		}
		r.stop()
	}
}

func (r *serveRun) counts(o *outcome) {
	for _, c := range r.clients {
		o.attempted += c.attempted
		o.failed += c.failed
		if c.firstErr != nil {
			o.problemf("first failed operation: %v", c.firstErr)
		}
	}
}

// fleetState fetches /v1/fleet/state and its resident count.
func (r *serveRun) fleetState(ctx context.Context) ([]byte, int, error) {
	body, err := httpGet(ctx, r.child.base+"/v1/fleet/state")
	if err != nil {
		return nil, 0, err
	}
	var st fleet.State
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, 0, err
	}
	return body, st.Residents, nil
}

func (r *serveRun) ledger() int {
	n := 0
	for _, c := range r.clients {
		n += len(c.fifo)
	}
	return n
}

// phaseA drives the open loop at the workload's frozen rate for dur and
// returns what the clients recorded.
func (r *serveRun) phaseA(ctx context.Context, dur time.Duration) *phaseRec {
	n := len(r.clients)
	interval := time.Duration(float64(n) / r.sp.rate * float64(time.Second))
	perClient := int(dur / interval)
	start := time.Now()
	return runClients(r.clients, func(i int, c *client) *phaseRec {
		rec := &phaseRec{}
		// Offset the schedules so the connections do not fire together.
		c.openLoop(ctx, start.Add(time.Duration(i)*interval/time.Duration(n)), interval, perClient, rec)
		return rec
	})
}

// inDueOrder returns the phase's latencies in the order the operations
// were due, all connections together.
func (p *phaseRec) inDueOrder() []float64 {
	idx := make([]int, len(p.opUS))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.due[idx[a]] < p.due[idx[b]] })
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = p.opUS[j]
	}
	return out
}

// runServe is the untraced run of a serve workload: set-up, then an open
// loop at the frozen rate for the whole measuring time, then the output
// checks. Saturation throughput is a closed-loop number and too unsteady
// in a shared sandbox to gate on; the traced run reports it as
// loadgen.sat_ops_per_s, and cpu_us_per_op stands as the capacity metric.
func runServe(ctx context.Context, e *env, sp serveSpec, seed int64, seconds float64) (*outcome, error) {
	if err := e.buildServe(); err != nil {
		return nil, err
	}
	r, setup, err := e.setUp(ctx, sp, seed, connections())
	if err != nil {
		return nil, err
	}
	defer r.stop()
	o := &outcome{vals: values{"setup_s": setup}}

	m0, err := r.child.mallocs(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(r.child.pid())
	if err != nil {
		return nil, err
	}
	a := r.phaseA(ctx, time.Duration(seconds*float64(time.Second)))
	cpu1, err := procCPU(r.child.pid())
	if err != nil {
		return nil, err
	}
	m1, err := r.child.mallocs(ctx)
	if err != nil {
		return nil, err
	}
	if o.vals["rss_mb"], err = procHWM(r.child.pid()); err != nil {
		return nil, err
	}
	logPhase(sp.name, "A open", a)
	lats := a.inDueOrder()
	for name, q := range map[string]float64{"op_p50_us": 0.5, "op_p90_us": 0.9} {
		if v, ok := windowQuantile(lats, q); ok {
			o.vals[name] = v
		}
	}
	if a.ops > 0 {
		o.vals["cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(a.ops)
		o.vals["allocs_per_op"] = (m1 - m0) / float64(a.ops)
	}
	r.check(ctx, e, o)
	return o, nil
}

func logPhase(name, phase string, p *phaseRec) {
	lat, late := sorted(p.opUS), sorted(p.lateUS)
	fmt.Fprintf(os.Stderr, "%s phase %s: ops %d  p50 %.0f us  p99 %.0f us  late p50 %.0f us  late p99 %.0f us\n",
		name, phase, p.ops, quantile(lat, 0.5), quantile(lat, 0.99), quantile(late, 0.5), quantile(late, 0.99))
}

// check runs the output checks of a serve workload: the clients' ledger
// agrees with the server's resident count; a durable server comes back
// from SIGKILL with a byte-identical state; and every placement the
// server returned can be removed, leaving an empty fleet.
func (r *serveRun) check(ctx context.Context, e *env, o *outcome) {
	before, residents, err := r.fleetState(ctx)
	if err != nil {
		o.problemf("reading fleet state: %v", err)
		return
	}
	if residents != r.ledger() {
		o.problemf("server holds %d residents, clients placed %d", residents, r.ledger())
	}
	if r.sp.durable {
		if err := r.restart(ctx, e, before, o); err != nil {
			o.problemf("restart: %v", err)
			return
		}
	}
	for _, c := range r.clients {
		c.trim(ctx, 0, nil, 0)
	}
	if _, residents, err = r.fleetState(ctx); err != nil {
		o.problemf("reading fleet state after draining: %v", err)
	} else if residents != 0 {
		o.problemf("%d residents left after removing every placement", residents)
	}
	r.counts(o)
}

// restart SIGKILLs the durable child, starts a new one on the same state
// directory and compares /v1/fleet/state with the bytes read before the
// kill. The time from the kill to the first healthy answer is
// serve.recover_ms.
func (r *serveRun) restart(ctx context.Context, e *env, before []byte, o *outcome) error {
	for _, b := range r.backends {
		b.close()
	}
	killed := time.Now()
	r.child.kill()
	if r.copyTo != "" {
		if err := copyDir(r.stateDir, r.copyTo); err != nil {
			return err
		}
		killed = time.Now() // the copy is no part of recovery
	}
	c, err := e.startServe(r.sp.name+"-recovered", r.sp.args(r.stateDir)...)
	if err != nil {
		return err
	}
	o.vals["serve.recover_ms"] = us(time.Since(killed)) / 1e3
	r.child = c
	for i, cl := range r.clients {
		r.backends[i] = newHTTPBackend(c.base)
		cl.be = r.backends[i]
	}
	after, _, err := r.fleetState(ctx)
	if err != nil {
		return err
	}
	if bytes.Equal(before, after) {
		o.vals["serve.state_identical"] = 1
		return nil
	}
	o.problemf("fleet state differs across SIGKILL and recovery (%d vs %d bytes)", len(before), len(after))
	_ = os.WriteFile(filepath.Join(e.out, "state-before.json"), before, 0o644) // for the
	_ = os.WriteFile(filepath.Join(e.out, "state-after.json"), after, 0o644)   // post-mortem only
	return nil
}
