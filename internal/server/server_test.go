package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// testMachine is the modeled machine for every server test: the two-core
// workstation, whose single cache group keeps profiling sweeps short.
func testMachine() *machine.Machine { return machine.TwoCoreWorkstation() }

// testPowerModel trains the quick Section 4.1 power model once per test
// binary; only the end-to-end golden test (which also profiles for real)
// pays for it.
var (
	pmOnce sync.Once
	pmVal  *core.PowerModel
	pmErr  error
)

func testPowerModel(t *testing.T) *core.PowerModel {
	t.Helper()
	pmOnce.Do(func() {
		pmVal, pmErr = core.TrainPowerModel(context.Background(), testMachine(), workload.ModelSet(), cli.TrainOptions(1, true, 0))
	})
	if pmErr != nil {
		t.Fatalf("training power model: %v", pmErr)
	}
	return pmVal
}

// fitPowerModel fits the Eq. 9 MVLR to a synthetic full-rank dataset
// generated from known coefficients — instant, for tests that exercise the
// HTTP surface rather than model quality.
func fitPowerModel(t *testing.T) *core.PowerModel {
	t.Helper()
	coef := []float64{5, 2e-9, 3e-9, 4e-8, 1e-9, 2.5e-9}
	ds := &core.PowerDataset{}
	for i := 0; i < 16; i++ {
		v := []float64{
			float64(i%5+1) * 1e8,
			float64(i%3+1) * 5e7,
			float64(i%7+1) * 1e6,
			float64(i%4+1) * 2e8,
			float64(i%6+1) * 1e7,
		}
		w := coef[0]
		for j, c := range coef[1:] {
			w += c * v[j]
		}
		ds.Features = append(ds.Features, v)
		ds.Watts = append(ds.Watts, w)
	}
	pm, err := core.FitPowerModel(ds)
	if err != nil {
		t.Fatalf("fitting synthetic power model: %v", err)
	}
	return pm
}

// oracleProfile is a ProfileFunc serving the analytic truth feature
// instantly, optionally counting invocations and holding each run open for
// delay so concurrency tests can widen the in-flight window.
func oracleProfile(runs *atomic.Int64, delay time.Duration) ProfileFunc {
	return func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
		if runs != nil {
			runs.Add(1)
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return core.TruthFeature(spec, m), nil
	}
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer builds a fast test server: oracle profiling and a
// synthetic power model by default. mutate may override any Config field
// (set Profile to nil to get the real core.Profile back).
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Machine: testMachine(),
		Power:   fitPowerModel(t),
		Seed:    1,
		Quick:   true,
		Workers: 1,
		Policy:  manager.PowerAware,
		Logger:  discardLogger(),
		Profile: oracleProfile(nil, 0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues one request against the test server and returns the status and
// raw body. Must be called from the test goroutine.
func do(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	status, raw, err := doRaw(ts, method, path, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return status, raw
}

// doRaw is the goroutine-safe variant of do.
func doRaw(ts *httptest.Server, method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

// wantAPIError asserts a typed JSON error envelope with the given status
// and code.
func wantAPIError(t *testing.T, status int, raw []byte, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", status, wantStatus, raw)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error body is not a JSON envelope: %v (body %s)", err, raw)
	}
	if env.Error == nil || env.Error.Code != wantCode {
		t.Fatalf("error envelope %s, want code %q", raw, wantCode)
	}
	if env.Error.Message == "" {
		t.Fatalf("error envelope %s has no message", raw)
	}
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update. On a mismatch the observed bytes are dumped next to the
// golden as <name minus .json>.got.json so CI can upload the diff pair.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		dump := strings.TrimSuffix(path, ".json") + ".got.json"
		if werr := os.WriteFile(dump, got, 0o644); werr == nil {
			t.Fatalf("%s: output differs from golden file; observed bytes dumped to %s", name, dump)
		}
		t.Fatalf("%s: output differs from golden file\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// e2eStep is one recorded request/response pair of the end-to-end
// scenario; the array of steps is what the golden file pins.
type e2eStep struct {
	Step     string          `json:"step"`
	Method   string          `json:"method"`
	Path     string          `json:"path"`
	Request  json.RawMessage `json:"request,omitempty"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response"`
}

// runE2EScenario boots a real-profiling server and drives the service
// loop — profile, re-profile (cache hit), predict, assign, place, state,
// process exit, state — returning the serialized step transcript.
func runE2EScenario(t *testing.T, workers int) ([]byte, *Server) {
	t.Helper()
	s, ts := newTestServer(t, func(c *Config) {
		c.Power = testPowerModel(t)
		c.Profile = nil // real profiling sweeps
		c.Workers = workers
	})
	steps := []struct {
		name, method, path, body string
	}{
		{"profile", "POST", "/v1/profile", `{"machine":"workstation","benches":["mcf","art"]}`},
		{"profile-cached", "POST", "/v1/profile", `{"benches":["mcf"]}`},
		{"predict", "POST", "/v1/predict", `{"benches":["mcf","art"],"solver":"auto"}`},
		{"assign", "POST", "/v1/assign", `{"benches":["mcf","art"],"top":2}`},
		{"place", "POST", "/v1/place", `{"benches":["mcf","art"]}`},
		{"state", "GET", "/v1/state", ""},
		{"unplace", "DELETE", "/v1/place/mcf%231", ""},
		{"state-after-exit", "GET", "/v1/state", ""},
	}
	var rec []e2eStep
	for _, st := range steps {
		status, raw := do(t, ts, st.method, st.path, st.body)
		if status != http.StatusOK {
			t.Fatalf("step %s: status %d, body %s", st.name, status, raw)
		}
		step := e2eStep{Step: st.name, Method: st.method, Path: st.path, Status: status, Response: raw}
		if st.body != "" {
			step.Request = json.RawMessage(st.body)
		}
		rec = append(rec, step)
	}
	got, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n'), s
}

// TestServeEndToEndGolden is the tentpole acceptance test: the full
// service loop against real profiling must produce a byte-identical JSON
// transcript at Workers 1 and 4, pinned by a golden file, and must profile
// each benchmark exactly once across the whole scenario.
func TestServeEndToEndGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("real profiling sweeps in -short")
	}
	var ref []byte
	for _, w := range []int{1, 4} {
		got, s := runE2EScenario(t, w)
		if ref == nil {
			ref = got
			checkGolden(t, "e2e_seed1.json", got)
		} else if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d transcript differs from workers=1", w)
		}
		// Two benchmarks crossed the whole scenario; everything after the
		// first profile was served from the cache.
		if runs := s.Registry().CounterValue("profile_runs_total"); runs != 2 {
			t.Errorf("workers=%d: %d profiling runs, want 2", w, runs)
		}
	}
}

// TestMetricsExposition checks the /metrics surface after traffic: request
// counters, latency histograms, and the cache gauges refreshed on scrape.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	do(t, ts, "POST", "/v1/profile", `{"benches":["mcf"]}`)
	do(t, ts, "POST", "/v1/profile", `{"benches":["mcf"]}`) // cache hit
	do(t, ts, "POST", "/v1/predict", `{"benches":["nope"]}`)

	status, raw := do(t, ts, "GET", "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	text := string(raw)
	for _, want := range []string{
		`requests_total{endpoint="profile",code="200"} 2`,
		`requests_total{endpoint="predict",code="400"} 1`,
		"profile_runs_total 1",
		"feature_cache_hits_total 1",
		// Two misses per fresh sweep: the fast-path lookup and the
		// re-check under the flight.
		"feature_cache_misses_total 2",
		"feature_cache_capacity 128",
		`request_seconds_count{endpoint="profile"} 2`,
		"# TYPE requests_total counter",
		"# TYPE request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, raw := do(t, ts, "GET", "/healthz", "")
	if status != http.StatusOK {
		t.Fatalf("/healthz status %d", status)
	}
	var body map[string]string
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["machine"] != testMachine().Name {
		t.Fatalf("/healthz body %s", raw)
	}
}

// TestAssignTopOfRanking: /v1/assign returns the head of the full ranking
// and counts every assignment it ranked, whatever top it is asked for.
func TestAssignTopOfRanking(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Machine = machine.FourCoreServer() })
	assign := func(top int) AssignResponse {
		t.Helper()
		body := `{"benches":["mcf","art","gzip","vpr"],"top":` + strconv.Itoa(top) + `}`
		status, raw := do(t, ts, "POST", "/v1/assign", body)
		if status != http.StatusOK {
			t.Fatalf("top %d: status %d, body %s", top, status, raw)
		}
		var resp AssignResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	all := assign(1000)
	if all.Evaluated != 72 || len(all.Results) != all.Evaluated {
		t.Fatalf("top 1000: %d results of %d evaluated, want all 72", len(all.Results), all.Evaluated)
	}
	for _, top := range []int{0, 1, 3} {
		resp := assign(top)
		want := top
		if top == 0 {
			want = 5
		}
		if resp.Evaluated != all.Evaluated || len(resp.Results) != want {
			t.Fatalf("top %d: %d results of %d evaluated, want %d of %d", top, len(resp.Results), resp.Evaluated, want, all.Evaluated)
		}
		for i, res := range resp.Results {
			if res.Watts != all.Results[i].Watts || fmt.Sprint(res.Layout) != fmt.Sprint(all.Results[i].Layout) {
				t.Fatalf("top %d: result %d is %v W %v, full ranking has %v W %v", top, i, res.Watts, res.Layout, all.Results[i].Watts, all.Results[i].Layout)
			}
		}
	}
}
