package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/metrics"
	"mpmc/internal/workload"
)

// TestServingHeapDoesNotGrowWithRequests drives place/unplace pairs of the
// ten suite names through Handler() on the benchmark's serving fleet — 24
// machines of three presets, one *machine.Machine each as cmd/serve builds
// them, 4 shards, synthetic models — and requires the live heap after a
// forced GC to be flat between a quarter and the whole of the run. When
// the fleet interned feature keys by (machine, spec) pointer and every
// request resolved its names to fresh specs, the stack kept ≈ 1.9 KB per
// placement request for ever (≈ +28 MB over this run).
func TestServingHeapDoesNotGrowWithRequests(t *testing.T) {
	pairs := 20000
	if testing.Short() {
		pairs = 4000
	}
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	var nodes []fleet.NodeConfig
	for i := 0; i < 8; i++ {
		for _, preset := range []string{"workstation", "server", "laptop"} {
			m, err := cli.MachineByName(preset)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, fleet.NodeConfig{Machine: m, Power: pm, MaxPerCore: 2})
		}
	}
	fl, err := fleet.NewSharded(fleet.Config{
		Nodes: nodes, Policy: fleet.LeastDegradation, Seed: 1, Registry: reg,
		Profile: fleet.ProfileFunc(oracleProfile(nil, 0)),
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Machine: testMachine(), Power: pm, Seed: 1, Quick: true, Workers: 1,
		Logger: discardLogger(), Profile: oracleProfile(nil, 0), Fleet: fl, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	suite := workload.Suite()
	var fifo []FleetPlacementInfo // residents in arrival order, held at 64 of 128 slots
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var early uint64
	for i := 0; i < pairs; i++ {
		if i == pairs/4 {
			early = live()
		}
		if len(fifo) == 64 {
			old := fifo[0]
			fifo = fifo[1:]
			serve("DELETE", "/v1/fleet/place/"+old.Node+"/"+url.PathEscape(old.Name), "")
		}
		rec := serve("POST", "/v1/fleet/place", `{"benches":["`+suite[i%len(suite)].Name+`"]}`)
		var pr FleetPlaceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatal(err)
		}
		fifo = append(fifo, pr.Placements[0])
	}
	late := live()
	runtime.KeepAlive(s) // the serving stack is what is being weighed
	const slack = 1 << 20
	if late > early+slack {
		t.Fatalf("live heap grew from %d B after %d pairs to %d B after %d: +%d B, want within %d",
			early, pairs/4, late, pairs, late-early, slack)
	}
}
