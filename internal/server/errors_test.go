package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"mpmc/internal/machine"
)

// TestHandlerErrorPaths drives every typed failure mode through the real
// mux and asserts both the HTTP status and the machine-readable error code
// of the JSON envelope.
func TestHandlerErrorPaths(t *testing.T) {
	cases := []struct {
		name               string
		mutate             func(*Config)
		method, path, body string
		wantStatus         int
		wantCode           string
	}{
		{
			name: "malformed json", method: "POST", path: "/v1/profile",
			body: `{`, wantStatus: http.StatusBadRequest, wantCode: "bad_json",
		},
		{
			name: "empty body", method: "POST", path: "/v1/predict",
			body: ``, wantStatus: http.StatusBadRequest, wantCode: "bad_json",
		},
		{
			name: "unknown field", method: "POST", path: "/v1/place",
			body: `{"bogus":1}`, wantStatus: http.StatusBadRequest, wantCode: "bad_json",
		},
		{
			name: "trailing garbage", method: "POST", path: "/v1/profile",
			body: `{"benches":["mcf"]} {}`, wantStatus: http.StatusBadRequest, wantCode: "bad_json",
		},
		{
			name: "empty bench list", method: "POST", path: "/v1/profile",
			body: `{"benches":[]}`, wantStatus: http.StatusBadRequest, wantCode: "bad_request",
		},
		{
			name: "blank bench name", method: "POST", path: "/v1/profile",
			body: `{"benches":[" "]}`, wantStatus: http.StatusBadRequest, wantCode: "bad_request",
		},
		{
			name: "unknown benchmark", method: "POST", path: "/v1/predict",
			body: `{"benches":["notabench"]}`, wantStatus: http.StatusBadRequest, wantCode: "unknown_benchmark",
		},
		{
			name: "unknown machine", method: "POST", path: "/v1/profile",
			body: `{"machine":"mainframe","benches":["mcf"]}`, wantStatus: http.StatusBadRequest, wantCode: "unknown_machine",
		},
		{
			name: "machine mismatch", method: "POST", path: "/v1/profile",
			body: `{"machine":"laptop","benches":["mcf"]}`, wantStatus: http.StatusConflict, wantCode: "machine_mismatch",
		},
		{
			name: "unknown solver", method: "POST", path: "/v1/predict",
			body: `{"benches":["mcf"],"solver":"magic"}`, wantStatus: http.StatusBadRequest, wantCode: "unknown_solver",
		},
		{
			name: "group too large", method: "POST", path: "/v1/predict",
			body: `{"benches":["mcf","art","gzip"]}`, wantStatus: http.StatusBadRequest, wantCode: "group_too_large",
		},
		{
			name: "negative top", method: "POST", path: "/v1/assign",
			body: `{"benches":["mcf"],"top":-1}`, wantStatus: http.StatusBadRequest, wantCode: "bad_request",
		},
		{
			name:   "oversized body",
			mutate: func(c *Config) { c.MaxBodyBytes = 32 },
			method: "POST", path: "/v1/profile",
			body:       `{"benches":["` + strings.Repeat("m", 64) + `"]}`,
			wantStatus: http.StatusRequestEntityTooLarge, wantCode: "body_too_large",
		},
		{
			name:   "exceeded deadline",
			mutate: func(c *Config) { c.RequestTimeout = time.Nanosecond },
			method: "POST", path: "/v1/profile",
			body:       `{"benches":["mcf"]}`,
			wantStatus: http.StatusGatewayTimeout, wantCode: "deadline_exceeded",
		},
		{
			name: "unknown process", method: "DELETE", path: "/v1/place/ghost%231",
			wantStatus: http.StatusNotFound, wantCode: "unknown_process",
		},
		{
			name: "unrouted path", method: "GET", path: "/v1/nope",
			wantStatus: http.StatusNotFound, wantCode: "not_found",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.mutate)
			status, raw := do(t, ts, tc.method, tc.path, tc.body)
			wantAPIError(t, status, raw, tc.wantStatus, tc.wantCode)
		})
	}
}

// TestPlaceMachineFull fills a MaxPerCore-capped machine and asserts the
// typed 409 on the admission that no longer fits.
func TestPlaceMachineFull(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxPerCore = 1 })
	if status, raw := do(t, ts, "POST", "/v1/place", `{"benches":["mcf","art"]}`); status != http.StatusOK {
		t.Fatalf("filling placement: status %d, body %s", status, raw)
	}
	status, raw := do(t, ts, "POST", "/v1/place", `{"benches":["gzip"]}`)
	wantAPIError(t, status, raw, http.StatusConflict, "machine_full")
}

// TestUnplaceLifecycle pins the happy path of process exit: place, remove,
// and a second remove of the same name is a typed 404.
func TestUnplaceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if status, raw := do(t, ts, "POST", "/v1/place", `{"benches":["mcf"]}`); status != http.StatusOK {
		t.Fatalf("place: status %d, body %s", status, raw)
	}
	if status, raw := do(t, ts, "DELETE", "/v1/place/mcf%231", ""); status != http.StatusOK {
		t.Fatalf("unplace: status %d, body %s", status, raw)
	}
	status, raw := do(t, ts, "DELETE", "/v1/place/mcf%231", "")
	wantAPIError(t, status, raw, http.StatusNotFound, "unknown_process")
}

// TestAssignSearchTooLarge: asking /v1/assign to rank more than 2^20
// mappings is the client's error, for every process count — including
// those where cores^k wraps an int (k >= 32 on four cores used to answer
// 200 with "evaluated": 0).
func TestAssignSearchTooLarge(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Machine = machine.FourCoreServer() })
	for _, k := range []int{11, 31, 32, 40} {
		body := `{"benches":["mcf"` + strings.Repeat(`,"mcf"`, k-1) + `]}`
		status, raw := do(t, ts, "POST", "/v1/assign", body)
		wantAPIError(t, status, raw, http.StatusBadRequest, "search_too_large")
	}
	// A search that fits still ranks.
	if status, raw := do(t, ts, "POST", "/v1/assign", `{"benches":["mcf","art","gzip"],"top":1}`); status != http.StatusOK {
		t.Fatalf("three-process search: status %d, body %s", status, raw)
	}
}
