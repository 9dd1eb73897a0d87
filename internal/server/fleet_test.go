package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/metrics"
)

// newFleetServer builds a test server with a 4× workstation fleet
// attached (capacity 16: 2 cores × 2 per core × 4 machines), sharing one
// registry so the fleet gauges land in this server's /metrics.
func newFleetServer(t *testing.T, policy fleet.Policy, queueCap int) (*Server, *httptest.Server) {
	t.Helper()
	reg := metrics.NewRegistry()
	pm := fitPowerModel(t)
	var nodes []fleet.NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, fleet.NodeConfig{
			Machine:    machine.TwoCoreWorkstation(),
			Power:      pm,
			MaxPerCore: 2,
		})
	}
	fl, err := fleet.New(fleet.Config{
		Nodes:    nodes,
		Policy:   policy,
		QueueCap: queueCap,
		Seed:     1,
		Workers:  2,
		Profile:  fleet.ProfileFunc(oracleProfile(nil, 0)),
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	s, ts := newTestServer(t, func(c *Config) {
		c.Fleet = fl
		c.Registry = reg
	})
	return s, ts
}

// TestRequestLogLine pins the per-request log line: a fleet_place line
// and an error line must match, byte for byte, the line slog writes for
// the same values given as loose key/value pairs (keys, order, types).
func TestRequestLogLine(t *testing.T) {
	s, _ := newFleetServer(t, fleet.LeastDegradation, 4)
	noTime := &slog.HandlerOptions{ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey && len(groups) == 0 {
			return slog.Attr{}
		}
		return a
	}}
	var got bytes.Buffer
	s.log = slog.New(slog.NewJSONHandler(&got, noTime))
	for _, tc := range []struct {
		body   string
		status int
		code   string
	}{
		{`{"benches":["mcf"]}`, http.StatusOK, ""},
		{`{"benches":[`, http.StatusBadRequest, "bad_json"},
	} {
		got.Reset()
		req := httptest.NewRequest("POST", "/v1/fleet/place", strings.NewReader(tc.body))
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		var line struct {
			Status int     `json:"status"`
			DurMS  float64 `json:"dur_ms"`
		}
		if err := json.Unmarshal(got.Bytes(), &line); err != nil {
			t.Fatalf("log line %q: %v", got.String(), err)
		}
		if line.Status != tc.status {
			t.Fatalf("logged status %d, want %d", line.Status, tc.status)
		}
		var want bytes.Buffer
		loose := slog.New(slog.NewJSONHandler(&want, noTime))
		args := []any{"endpoint", "fleet_place", "method", "POST", "path", "/v1/fleet/place",
			"status", line.Status, "dur_ms", line.DurMS}
		if tc.code != "" {
			loose.Warn("request", append(args, "error", tc.code)...)
		} else {
			loose.Info("request", args...)
		}
		if got.String() != want.String() {
			t.Errorf("request line\n got %s\nwant %s", got.String(), want.String())
		}
	}
}

// TestFleetRoutesAbsentWithoutFleet: a server with no fleet must 404 the
// fleet surface with the typed envelope.
func TestFleetRoutesAbsentWithoutFleet(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, raw := do(t, ts, "GET", "/v1/fleet/state", "")
	wantAPIError(t, status, raw, http.StatusNotFound, "not_found")
}

// TestFleetPlaceStateRemove drives the fleet surface end to end:
// transactional placement, state inspection, rebalance no-op, and typed
// errors.
func TestFleetPlaceStateRemove(t *testing.T) {
	_, ts := newFleetServer(t, fleet.LeastDegradation, 4)

	status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf","art","gzip"]}`)
	if status != http.StatusOK {
		t.Fatalf("fleet place status %d: %s", status, raw)
	}
	var pr FleetPlaceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Placements) != 3 || len(pr.Queued) != 0 {
		t.Fatalf("placements %+v", pr)
	}
	for _, p := range pr.Placements {
		if p.Node == "" || p.Name == "" || p.Watts <= 0 {
			t.Fatalf("degenerate placement %+v", p)
		}
	}

	status, raw = do(t, ts, "GET", "/v1/fleet/state", "")
	if status != http.StatusOK {
		t.Fatalf("fleet state status %d: %s", status, raw)
	}
	var st fleet.State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residents != 3 || st.Policy != "least-degradation" || len(st.Nodes) != 4 {
		t.Fatalf("fleet state %s", raw)
	}

	// Unknown benchmark → typed 400; unknown method/path → typed 404.
	status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["doom"]}`)
	wantAPIError(t, status, raw, http.StatusBadRequest, "unknown_benchmark")
	status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf"],"nope":1}`)
	wantAPIError(t, status, raw, http.StatusBadRequest, "bad_json")

	// Rebalance threshold nobody clears → 200 with moved:false, not an
	// error: a no-op pass is a routine answer.
	status, raw = do(t, ts, "POST", "/v1/fleet/rebalance", `{"min_improvement":1e9}`)
	if status != http.StatusOK {
		t.Fatalf("rebalance status %d: %s", status, raw)
	}
	var rr FleetRebalanceResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Moved || rr.Reason == "" || rr.Move != nil {
		t.Fatalf("no-op rebalance response %s", raw)
	}
	status, raw = do(t, ts, "POST", "/v1/fleet/rebalance", `{"min_improvement":-1}`)
	wantAPIError(t, status, raw, http.StatusBadRequest, "bad_request")
}

// TestFleetPlaceOverflow pins the typed fleet_full conflict and the
// transactional all-or-nothing contract at the HTTP layer.
func TestFleetPlaceOverflow(t *testing.T) {
	_, ts := newFleetServer(t, fleet.BinPack, 0)
	benches := make([]string, 16)
	for i := range benches {
		benches[i] = []string{"mcf", "art", "gzip", "vpr"}[i%4]
	}
	body, _ := json.Marshal(map[string]any{"benches": benches})
	status, raw := do(t, ts, "POST", "/v1/fleet/place", string(body))
	if status != http.StatusOK {
		t.Fatalf("filling place status %d: %s", status, raw)
	}

	// The fleet is full: a transactional batch of 2 must admit neither.
	status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf","art"]}`)
	wantAPIError(t, status, raw, http.StatusConflict, "fleet_full")
	var st fleet.State
	_, sraw := do(t, ts, "GET", "/v1/fleet/state", "")
	if err := json.Unmarshal(sraw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residents != 16 || st.QueueDepth != 0 {
		t.Fatalf("state after rejected batch: %s", sraw)
	}

	// With no queue configured, queue mode reports queue_full.
	status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf"],"queue":true}`)
	wantAPIError(t, status, raw, http.StatusTooManyRequests, "queue_full")
}

// TestFleetQueueMode: queue mode parks what does not fit and a departure
// pumps it back out.
func TestFleetQueueMode(t *testing.T) {
	_, ts := newFleetServer(t, fleet.LeastDegradation, 8)
	benches := make([]string, 16)
	for i := range benches {
		benches[i] = "mcf"
	}
	body, _ := json.Marshal(map[string]any{"benches": benches})
	if status, raw := do(t, ts, "POST", "/v1/fleet/place", string(body)); status != http.StatusOK {
		t.Fatalf("fill status %d: %s", status, raw)
	}
	status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["art","gzip"],"queue":true}`)
	if status != http.StatusOK {
		t.Fatalf("queue place status %d: %s", status, raw)
	}
	var pr FleetPlaceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Placements) != 0 || len(pr.Queued) != 2 || pr.QueueDepth != 2 {
		t.Fatalf("queue place response %s", raw)
	}
}

// TestFleetPriorityPreemption drives the priority surface: a class-1
// arrival on a full fleet evicts a class-0 resident, the response carries
// the victim's disposition, and the victim waits in the admission queue.
// Priority composes only with queue mode; the strict batch rejects it.
func TestFleetPriorityPreemption(t *testing.T) {
	_, ts := newFleetServer(t, fleet.LeastDegradation, 8)
	benches := make([]string, 16)
	for i := range benches {
		benches[i] = "mcf"
	}
	body, _ := json.Marshal(map[string]any{"benches": benches})
	if status, raw := do(t, ts, "POST", "/v1/fleet/place", string(body)); status != http.StatusOK {
		t.Fatalf("fill status %d: %s", status, raw)
	}

	status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["art"],"queue":true,"priority":1}`)
	if status != http.StatusOK {
		t.Fatalf("priority place status %d: %s", status, raw)
	}
	var pr FleetPlaceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Placements) != 1 || len(pr.Queued) != 0 {
		t.Fatalf("priority place response %s", raw)
	}
	v := pr.Placements[0].Preempted
	if v == nil || v.Workload != "mcf" || !v.Requeued || v.Ticket == 0 {
		t.Fatalf("victim disposition %s", raw)
	}
	if pr.QueueDepth != 1 {
		t.Fatalf("queue depth %d after requeued victim, want 1", pr.QueueDepth)
	}

	// Class 0 placements never carry a disposition, full fleet or not.
	status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["gzip"],"queue":true}`)
	if status != http.StatusOK {
		t.Fatalf("class-0 place status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Placements) != 0 || len(pr.Queued) != 1 {
		t.Fatalf("class-0 arrival on a full fleet should queue, got %s", raw)
	}

	status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["art"],"priority":1}`)
	wantAPIError(t, status, raw, http.StatusBadRequest, "bad_request")
	status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["art"],"queue":true,"priority":-1}`)
	wantAPIError(t, status, raw, http.StatusBadRequest, "bad_request")
}

// TestFleetConcurrentPlacement is the race acceptance test: 32 goroutines
// hammer POST /v1/fleet/place against the 4-machine fleet (capacity 16).
// Under -race this must be clean, no machine may exceed its per-core cap,
// and the metrics counters must sum to the request count.
func TestFleetConcurrentPlacement(t *testing.T) {
	s, ts := newFleetServer(t, fleet.LeastDegradation, 0)
	benches := []string{"mcf", "art", "gzip", "vpr"}
	var wg sync.WaitGroup
	errs := make([]error, 32)
	codes := make([]int, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"benches":[%q]}`, benches[i%len(benches)])
			status, raw, err := doRaw(ts, "POST", "/v1/fleet/place", body)
			if err != nil {
				errs[i] = err
				return
			}
			codes[i] = status
			if status != http.StatusOK && status != http.StatusConflict {
				errs[i] = fmt.Errorf("status %d: %s", status, raw)
			}
		}(i)
	}
	wg.Wait()
	ok, conflict := 0, 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		switch codes[i] {
		case http.StatusOK:
			ok++
		case http.StatusConflict:
			conflict++
		}
	}
	// Exactly the fleet's capacity lands; everything else conflicts.
	if ok != 16 || conflict != 16 {
		t.Fatalf("placed %d, conflicts %d — want 16/16", ok, conflict)
	}

	var st fleet.State
	_, raw := do(t, ts, "GET", "/v1/fleet/state", "")
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residents != 16 {
		t.Fatalf("%d residents, want 16", st.Residents)
	}
	for _, n := range st.Nodes {
		for _, c := range n.Cores {
			if len(c.Procs) > 2 {
				t.Fatalf("node %s core %d over capacity: %v", n.Node, c.Core, c.Procs)
			}
		}
	}

	// Counter conservation: every request either placed or was rejected.
	reg := s.Registry()
	placed := reg.CounterValue("fleet_place_total")
	rejected := reg.CounterValue("fleet_place_rejected_total")
	if placed != 16 || rejected != 16 || placed+rejected != 32 {
		t.Fatalf("counters placed=%d rejected=%d, want 16+16=32", placed, rejected)
	}
}

// TestFleetMetricsExposition checks the fleet gauges and counters appear
// in the shared /metrics exposition after fleet traffic.
func TestFleetMetricsExposition(t *testing.T) {
	_, ts := newFleetServer(t, fleet.Spread, 4)
	do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf","art"]}`)

	status, raw := do(t, ts, "GET", "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	text := string(raw)
	for _, want := range []string{
		"fleet_place_total 2",
		"fleet_residents 2",
		"fleet_machines 4",
		"fleet_queue_depth 0",
		`fleet_machine_residents{node="m0"}`,
		`fleet_machine_milliwatts{node="m0"}`,
		`requests_total{endpoint="fleet_place",code="200"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(text, "fleet_machine_milliwatts{node=\"m0\"} -1") {
		t.Error("fleet power gauge reports the failure sentinel")
	}
}

// TestFleetMemoMetrics: the memo counters (hits, misses and evictions of
// the score and decision memos and of the solver state's solutions and
// watts) appear in /metrics, read at scrape time, and a warm placement
// moves the decision memo's hit counter.
func TestFleetMemoMetrics(t *testing.T) {
	s, ts := newFleetServer(t, fleet.LeastDegradation, 4)
	place := func() FleetPlaceResponse {
		t.Helper()
		status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf"]}`)
		if status != http.StatusOK {
			t.Fatalf("place status %d: %s", status, raw)
		}
		var pr FleetPlaceResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	pr := place()
	_, raw := do(t, ts, "GET", "/metrics", "")
	for _, fam := range []string{"fleet_memo_hits_total", "fleet_memo_misses_total", "fleet_memo_evictions_total"} {
		for _, memo := range []string{"score", "decision", "solver"} {
			if want := fam + `{memo="` + memo + `"} `; !strings.Contains(string(raw), want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
	hits := `fleet_memo_hits_total{memo="decision"}`
	cold := metricValue(t, s, hits)
	if metricValue(t, s, `fleet_memo_misses_total{memo="decision"}`) == 0 {
		t.Fatal("the cold placement counted no decision-memo miss")
	}
	// Departing and arriving again puts every machine back where the first
	// placement found it: each decision is a memo hit.
	p := pr.Placements[0]
	if status, raw := do(t, ts, "DELETE", "/v1/fleet/place/"+p.Node+"/"+url.PathEscape(p.Name), ""); status != http.StatusOK {
		t.Fatalf("unplace status %d: %s", status, raw)
	}
	place()
	if warm := metricValue(t, s, hits); warm <= cold {
		t.Fatalf("decision-memo hits %v after a warm placement, %v before", warm, cold)
	}
}

// TestFleetUnplacePumpsQueue drives DELETE /v1/fleet/place/{node}/{name}:
// the removal frees a slot, the queued arrival is pumped into it, and the
// response reports both; unknown targets get the typed 404.
func TestFleetUnplacePumpsQueue(t *testing.T) {
	_, ts := newFleetServer(t, fleet.LeastDegradation, 4)

	// Fill all 16 slots, remembering one placement to remove.
	var victim FleetPlacementInfo
	for i := 0; i < 4; i++ {
		status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf","art","gzip","vpr"]}`)
		if status != http.StatusOK {
			t.Fatalf("fill %d status %d: %s", i, status, raw)
		}
		var pr FleetPlaceResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		victim = pr.Placements[0]
	}

	// Queue one arrival behind the full fleet.
	status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["swim"],"queue":true}`)
	if status != http.StatusOK {
		t.Fatalf("queue place status %d: %s", status, raw)
	}
	if !strings.Contains(string(raw), `"queued":["swim"]`) {
		t.Fatalf("expected swim queued: %s", raw)
	}

	status, raw = do(t, ts, "DELETE", "/v1/fleet/place/"+victim.Node+"/"+url.PathEscape(victim.Name), "")
	if status != http.StatusOK {
		t.Fatalf("unplace status %d: %s", status, raw)
	}
	var ur FleetUnplaceResponse
	if err := json.Unmarshal(raw, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Removed != victim.Name || ur.Node != victim.Node {
		t.Fatalf("unplace response %s", raw)
	}
	if len(ur.Pumped) != 1 || ur.Pumped[0].Bench != "swim" || ur.QueueDepth != 0 {
		t.Fatalf("freed slot did not pump the queue: %s", raw)
	}

	status, raw = do(t, ts, "DELETE", "/v1/fleet/place/nope/ghost", "")
	wantAPIError(t, status, raw, http.StatusNotFound, "unknown_node")
}

// TestFleetShardedBackend serves the /v1/fleet surface from a sharded
// fleet: the HTTP layer is backend-agnostic, so placement, state, and
// unplace behave exactly as with the single-lock fleet.
func TestFleetShardedBackend(t *testing.T) {
	reg := metrics.NewRegistry()
	pm := fitPowerModel(t)
	var nodes []fleet.NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, fleet.NodeConfig{
			Machine:    machine.TwoCoreWorkstation(),
			Power:      pm,
			MaxPerCore: 2,
		})
	}
	fl, err := fleet.NewSharded(fleet.Config{
		Nodes:    nodes,
		Policy:   fleet.LeastDegradation,
		QueueCap: 4,
		Seed:     1,
		Workers:  2,
		Profile:  fleet.ProfileFunc(oracleProfile(nil, 0)),
		Registry: reg,
	}, 2)
	if err != nil {
		t.Fatalf("fleet.NewSharded: %v", err)
	}
	_, ts := newTestServer(t, func(c *Config) {
		c.Fleet = fl
		c.Registry = reg
	})

	status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf","art","gzip"]}`)
	if status != http.StatusOK {
		t.Fatalf("place status %d: %s", status, raw)
	}
	var pr FleetPlaceResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Placements) != 3 {
		t.Fatalf("placements %s", raw)
	}

	var st fleet.State
	status, sraw := do(t, ts, "GET", "/v1/fleet/state", "")
	if status != http.StatusOK {
		t.Fatalf("state status %d: %s", status, sraw)
	}
	if err := json.Unmarshal(sraw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Residents != 3 || len(st.Nodes) != 4 {
		t.Fatalf("sharded state %s", sraw)
	}

	status, raw = do(t, ts, "DELETE", "/v1/fleet/place/"+pr.Placements[0].Node+"/"+url.PathEscape(pr.Placements[0].Name), "")
	if status != http.StatusOK {
		t.Fatalf("unplace status %d: %s", status, raw)
	}
}

// TestFleetCapEndpoint drives the /v1/fleet/cap surface: read the
// disabled default, engage a generous budget (enforcement is a no-op),
// tighten it (the report must account for the shed), disable it again,
// and pin the typed validation errors.
func TestFleetCapEndpoint(t *testing.T) {
	_, ts := newFleetServer(t, fleet.LeastDegradation, 4)

	status, raw := do(t, ts, "GET", "/v1/fleet/cap", "")
	if status != http.StatusOK {
		t.Fatalf("cap get status %d: %s", status, raw)
	}
	var cr FleetCapResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Watts != 0 || cr.Usage != 0 || cr.Report != nil {
		t.Fatalf("untracked default cap %s", raw)
	}

	if status, raw = do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf","art","gzip","vpr"]}`); status != http.StatusOK {
		t.Fatalf("place status %d: %s", status, raw)
	}

	// A generous budget: enforcement runs but has nothing to shed.
	status, raw = do(t, ts, "PUT", "/v1/fleet/cap", `{"watts":100000}`)
	if status != http.StatusOK {
		t.Fatalf("cap put status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Watts != 100000 || cr.Usage <= 0 || cr.Report == nil {
		t.Fatalf("generous cap response %s", raw)
	}
	if !cr.Report.Satisfied || cr.Report.Downclocks != 0 || cr.Report.Migrations != 0 {
		t.Fatalf("generous cap should be a no-op enforcement: %s", raw)
	}
	loose := cr.Usage

	// Tighten below the current draw: enforcement must act, and whatever
	// it reports must agree with the usage it leaves behind.
	tight := fmt.Sprintf(`{"watts":%.6f}`, loose*0.98)
	status, raw = do(t, ts, "PUT", "/v1/fleet/cap", tight)
	if status != http.StatusOK {
		t.Fatalf("tight cap put status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Report == nil {
		t.Fatalf("tight cap response missing report: %s", raw)
	}
	if cr.Report.Satisfied {
		if cr.Usage > cr.Watts {
			t.Fatalf("satisfied report but usage %.4f > cap %.4f", cr.Usage, cr.Watts)
		}
		if cr.Report.Downclocks == 0 && cr.Report.Migrations == 0 {
			t.Fatalf("over-budget fleet satisfied with no actions: %s", raw)
		}
	}
	// The cap gauge must now be exported alongside the fleet gauges.
	status, mraw := do(t, ts, "GET", "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	if !strings.Contains(string(mraw), "fleet_power_cap_milliwatts") {
		t.Fatalf("metrics missing fleet_power_cap_milliwatts:\n%s", mraw)
	}

	// Disable: watts 0 turns the budget off (usage stays tracked).
	status, raw = do(t, ts, "PUT", "/v1/fleet/cap", `{"watts":0}`)
	if status != http.StatusOK {
		t.Fatalf("cap disable status %d: %s", status, raw)
	}
	cr = FleetCapResponse{}
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Watts != 0 || cr.Report != nil {
		t.Fatalf("disabled cap response %s", raw)
	}

	status, raw = do(t, ts, "PUT", "/v1/fleet/cap", `{"watts":-5}`)
	wantAPIError(t, status, raw, http.StatusBadRequest, "bad_request")
	status, raw = do(t, ts, "PUT", "/v1/fleet/cap", `{}`)
	wantAPIError(t, status, raw, http.StatusBadRequest, "bad_request")
}

// TestFleetCapShardedBackend pins the same surface against the sharded
// backend, whose shards share one watt ledger.
func TestFleetCapShardedBackend(t *testing.T) {
	reg := metrics.NewRegistry()
	pm := fitPowerModel(t)
	var nodes []fleet.NodeConfig
	for i := 0; i < 4; i++ {
		nodes = append(nodes, fleet.NodeConfig{
			Machine:    machine.TwoCoreWorkstation(),
			Power:      pm,
			MaxPerCore: 2,
		})
	}
	fl, err := fleet.NewSharded(fleet.Config{
		Nodes:    nodes,
		Policy:   fleet.LeastDegradation,
		QueueCap: 4,
		Seed:     1,
		Workers:  2,
		Profile:  fleet.ProfileFunc(oracleProfile(nil, 0)),
		Registry: reg,
	}, 2)
	if err != nil {
		t.Fatalf("fleet.NewSharded: %v", err)
	}
	_, ts := newTestServer(t, func(c *Config) {
		c.Fleet = fl
		c.Registry = reg
	})

	if status, raw := do(t, ts, "POST", "/v1/fleet/place", `{"benches":["mcf","art"]}`); status != http.StatusOK {
		t.Fatalf("place status %d: %s", status, raw)
	}
	status, raw := do(t, ts, "PUT", "/v1/fleet/cap", `{"watts":100000}`)
	if status != http.StatusOK {
		t.Fatalf("cap put status %d: %s", status, raw)
	}
	var cr FleetCapResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Watts != 100000 || cr.Usage <= 0 || cr.Report == nil || !cr.Report.Satisfied {
		t.Fatalf("sharded cap response %s", raw)
	}
	var st fleet.State
	status, sraw := do(t, ts, "GET", "/v1/fleet/state", "")
	if status != http.StatusOK {
		t.Fatalf("state status %d: %s", status, sraw)
	}
	if err := json.Unmarshal(sraw, &st); err != nil {
		t.Fatal(err)
	}
	if st.PowerCap != 100000 || st.CapUsage != cr.Usage {
		t.Fatalf("sharded state cap fields: %s", sraw)
	}
}
