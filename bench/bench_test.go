package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mpmc/internal/server"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, // 9 beyond
		{20, 0.5, true},  // 10 beyond
		{99, 0.9, true},
		{91, 0.9, false},
		{100, 0.9, true},
		{100, 0.99, false},
		{1001, 0.99, true},
		{0, 0.5, false},
	} {
		if _, ok := percentile(asc(tc.n), tc.q); ok != tc.want {
			t.Errorf("percentile(n=%d, q=%v) printed=%v, want %v", tc.n, tc.q, ok, tc.want)
		}
	}
	if v, _ := percentile(asc(101), 0.9); v != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", v)
	}
}

// Values from Python's statistics.quantiles(values, n=4), which the
// acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 9, 4, 4.5, 7, 8}, [3]float64{4, 5, 8}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestWindowQuantileIsTheMedianOfWholeWindows(t *testing.T) {
	// Five whole windows with medians 100, 200, 900, 300, 400 -- the third
	// one a stall -- and a tail of 50 operations that is left out.
	var lats []float64
	for _, base := range []float64{100, 200, 900, 300, 400} {
		for i := 0; i < windowOps; i++ {
			lats = append(lats, base+float64(i%11)-5)
		}
	}
	for i := 0; i < 50; i++ {
		lats = append(lats, 5000)
	}
	if got, ok := windowQuantile(lats, 0.5); !ok || got != 300 {
		t.Errorf("p50 = %v (printed=%v), want the middle window's 300", got, ok)
	}
	if got, ok := windowQuantile(lats, 0.9); !ok || math.Abs(got-304) > 1 {
		t.Errorf("p90 = %v (printed=%v), want about 304", got, ok)
	}
	// A phase shorter than one window is one window, under the same rule.
	if got, ok := windowQuantile(lats[:120], 0.9); !ok || math.Abs(got-104) > 1 {
		t.Errorf("p90 of a short phase = %v (printed=%v), want about 104", got, ok)
	}
	if _, ok := windowQuantile(lats[:90], 0.9); ok {
		t.Error("p90 printed with fewer than ten samples beyond it")
	}
	if _, ok := windowQuantile(nil, 0.5); ok {
		t.Error("p50 of nothing printed")
	}
}

func TestWindowRateIsTheMedianOfWholeWindows(t *testing.T) {
	// Whole seconds with 10, 30 and 20 completions, then a part of one.
	var done []float64
	for w, n := range []int{10, 30, 20, 4} {
		for i := 0; i < n; i++ {
			done = append(done, float64(w)+float64(i)/100)
		}
	}
	if got := windowRate(done, 1); got != 20 {
		t.Errorf("rate = %v/s, want the median window's 20", got)
	}
	// Every second's completions lie in its first half: the half-second
	// windows hold 20, 0, 60, 0, 40 and 0 a second.
	if got := windowRate(done, 0.5); got != 10 {
		t.Errorf("rate over half-second windows = %v/s, want 10", got)
	}
	if got := windowRate([]float64{0.1, 0.2}, 1); got != 0 {
		t.Errorf("rate of a phase shorter than a window = %v, want 0", got)
	}
}

func TestLadderRowsSumToTheTopRung(t *testing.T) {
	rows := ladder("top", []rung{
		{"top", 500, []string{"mid"}},
		{"mid", 200, []string{"x", "y"}},
		{"x", 150, nil},
		{"y", 90, nil}, // x+y exceed mid: mid floors at 0, the excess goes to unattributed
	})
	want := map[string]float64{"top": 300, "mid": 0, "x": 150, "y": 90, "unattributed": -40}
	sum := 0.0
	for _, r := range rows {
		if r.Selfus != want[r.Name] {
			t.Errorf("row %s = %v, want %v", r.Name, r.Selfus, want[r.Name])
		}
		sum += r.Selfus
	}
	if sum != 500 {
		t.Errorf("rows sum to %v, want the top rung's 500", sum)
	}
	if last := rows[len(rows)-1]; last.Name != "unattributed" {
		t.Errorf("last row is %s, want unattributed", last.Name)
	}
}

// The open loop times every request from when it was due. A 50 ms stall in
// one request must therefore show in the latency and the lateness of the
// requests scheduled behind it, which the server itself answered quickly.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stallAt, stall = 10, 50 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(server.FleetPlaceResponse{
			Placements: []server.FleetPlacementInfo{{Bench: "gzip", Node: "m0", Name: "gzip#1"}},
		})
	}))
	defer srv.Close()
	be := newHTTPBackend(srv.URL)
	defer be.close()
	c := &client{be: be, st: newStream(1, false), budget: 1 << 20}
	rec := &phaseRec{}
	c.openLoop(context.Background(), time.Now(), 5*time.Millisecond, 30, rec)
	if c.failed != 0 || rec.ops != 30 {
		t.Fatalf("ops %d, failed %d (%v)", rec.ops, c.failed, c.firstErr)
	}
	if got := rec.opUS[stallAt]; got < 50e3 {
		t.Errorf("stalled request took %v us, want at least 50000", got)
	}
	next := stallAt + 1
	if rec.lateUS[next] < 35e3 || rec.opUS[next] < 35e3 {
		t.Errorf("request behind the stall: late %v us, latency %v us; want both over 35000", rec.lateUS[next], rec.opUS[next])
	}
	if own := rec.opUS[next] - rec.lateUS[next]; own > 20e3 {
		t.Errorf("request behind the stall spent %v us in service itself; the stall should be lateness", own)
	}
	if rec.lateUS[stallAt-1] > 20e3 {
		t.Errorf("request before the stall was %v us late", rec.lateUS[stallAt-1])
	}
}

func TestUnplacePathEscapesInstanceNames(t *testing.T) {
	if got, want := unplacePath(ref{"m3", "twolf#4"}), "/v1/fleet/place/m3/twolf%234"; got != want {
		t.Errorf("unplacePath = %q, want %q", got, want)
	}
}

func TestDeckDealsEveryCardOncePerPass(t *testing.T) {
	s := newStream(7, true)
	kinds := map[reqKind]int{}
	for i := 0; i < 200; i++ {
		kinds[s.next().kind]++
	}
	if kinds[kindGroup] != 100 || kinds[kindPlace] != 60 || kinds[kindAsync] != 20 || kinds[kindState] != 20 {
		t.Errorf("200 cold requests mixed as %v, want 100/60/20/20", kinds)
	}
	a, b := newStream(7, true), newStream(7, true)
	for i := 0; i < 50; i++ {
		if x, y := a.next(), b.next(); string(x.body) != string(y.body) || x.kind != y.kind {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
	}
}

// BENCHMARK.json and the tables the program prints from must name the same
// metrics with the same units.
func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(table))
			return
		}
		for i := range table {
			if file[i] != table[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program %v", kind, i, file[i], table[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloadNames[i])
		}
	}
}

// The smoke runs all six workloads, traced and untraced, at about a
// twentieth of their size, with every output check on. 0.8 s is the
// shortest run in which the slowest stream (140 requests a second) leaves
// ten samples beyond its 90th percentile.
func TestSmokeAllWorkloads(t *testing.T) {
	simMachines, sweepWarmup, sweepDuration, setupMin, setupMax = 48, 0.015, 0.03, 1, 1
	quickWarmup, quickDuration, modelErrCeiling = 0.15, 0.3, math.Inf(1)
	e := &env{root: "..", out: t.TempDir(), clean: &cleanup{}}
	defer e.clean.run()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), e, name, 1, 0.8, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(rep.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), want)
			}
		}
	}
}
