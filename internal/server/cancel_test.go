package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpmc/internal/fleet"
	"mpmc/internal/manager"
)

// metricValue scrapes /metrics and returns the named sample (0 when the
// series has not been created yet).
func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	var buf strings.Builder
	if err := s.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9eE.+-]+)$`)
	match := re.FindStringSubmatch(buf.String())
	if match == nil {
		return 0
	}
	v, err := strconv.ParseFloat(match[1], 64)
	if err != nil {
		t.Fatalf("parsing %s sample %q: %v", name, match[1], err)
	}
	return v
}

// TestProfileAbandonedByClient disconnects the client mid-sweep and checks
// the request lifecycle end to end: the slow profile run is abandoned
// promptly, the abandonment is counted, and the request is logged as a
// 499 rather than a server fault.
func TestProfileAbandonedByClient(t *testing.T) {
	var runs atomic.Int64
	s, ts := newTestServer(t, func(c *Config) {
		c.Profile = oracleProfile(&runs, 30*time.Second)
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/profile",
		strings.NewReader(`{"benches":["mcf"]}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded with status %d", resp.StatusCode)
		}
		errc <- err
	}()
	// Give the handler time to start the sweep, then walk away.
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("profiling run never started")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error %v, want context.Canceled", err)
	}
	// The handler notices within the sweep's ctx check, far before the
	// 30 s the fake run would otherwise take.
	deadline = time.Now().Add(5 * time.Second)
	for metricValue(t, s, "profile_abandoned_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("profile_abandoned_total never incremented (elapsed %v)", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
	if v := metricValue(t, s, `requests_total{endpoint="profile",code="499"}`); v < 1 {
		t.Fatalf(`requests_total{endpoint="profile",code="499"} = %v, want >= 1`, v)
	}
}

// TestPlaceRollbackSurfaced drives a mid-batch machine-full through the
// HTTP surface: typed 409, rollback counted, and the resident state left
// exactly empty.
func TestPlaceRollbackSurfaced(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxPerCore = 1
	})
	status, raw := do(t, ts, "POST", "/v1/place", `{"benches":["mcf","art","gzip"]}`)
	wantAPIError(t, status, raw, http.StatusConflict, "machine_full")
	if v := metricValue(t, s, "place_rollback_total"); v != 1 {
		t.Fatalf("place_rollback_total = %v, want 1", v)
	}
	status, raw = do(t, ts, "GET", "/v1/state", "")
	if status != http.StatusOK {
		t.Fatalf("/v1/state status %d", status)
	}
	if strings.Contains(string(raw), "#") {
		t.Fatalf("state still holds instances after rollback: %s", raw)
	}
}

// TestToAPIErrorCancellation pins the error-mapping table for the
// cancellation-aware paths, including causes wrapped by a rollback.
func TestToAPIErrorCancellation(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
	}{
		{"canceled", context.Canceled, statusClientClosedRequest, "client_closed_request"},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
		{"wrapped canceled", fmt.Errorf("profiling mcf: %w", context.Canceled), statusClientClosedRequest, "client_closed_request"},
		{"rollback over machine full", onMachine(fmt.Errorf("fleet: batch %w after 2 placement(s): %w", fleet.ErrRolledBack, fleet.ErrFleetFull)), http.StatusConflict, "machine_full"},
		{"rollback over cancellation", onMachine(fmt.Errorf("fleet: batch %w after 1 placement(s): %w", fleet.ErrRolledBack, context.Canceled)), statusClientClosedRequest, "client_closed_request"},
		{"unknown process", manager.ErrUnknownProcess, http.StatusNotFound, "unknown_process"},
	}
	for _, tc := range cases {
		ae := toAPIError(tc.err)
		if ae.Status != tc.wantStatus || ae.Code != tc.wantCode {
			t.Errorf("%s: toAPIError(%v) = %d/%s, want %d/%s",
				tc.name, tc.err, ae.Status, ae.Code, tc.wantStatus, tc.wantCode)
		}
	}
}
