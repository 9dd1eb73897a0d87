package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/workload"
)

// FeatureInfo pairs a benchmark's wire-form feature vector with whether it
// was already resident in the cache when the request arrived.
type FeatureInfo struct {
	Feature *core.FeatureVector `json:"feature"`
	Cached  bool                `json:"cached"`
}

// ProfileResponse answers POST /v1/profile.
type ProfileResponse struct {
	Machine  string        `json:"machine"`
	Features []FeatureInfo `json:"features"`
}

// PredictionInfo is one benchmark's equilibrium operating point.
type PredictionInfo struct {
	Bench string  `json:"bench"`
	SWays float64 `json:"s_ways"`
	MPA   float64 `json:"mpa"`
	SPI   float64 `json:"spi"`
}

// PredictResponse answers POST /v1/predict.
type PredictResponse struct {
	Machine     string           `json:"machine"`
	Assoc       int              `json:"assoc"`
	Solver      string           `json:"solver"`
	Predictions []PredictionInfo `json:"predictions"`
}

// AssignResultInfo is one ranked assignment.
type AssignResultInfo struct {
	Watts  float64    `json:"watts"`
	Layout [][]string `json:"layout"` // benchmark names per core
}

// AssignResponse answers POST /v1/assign.
type AssignResponse struct {
	Machine   string             `json:"machine"`
	Evaluated int                `json:"evaluated"`
	Results   []AssignResultInfo `json:"results"`
}

// PlacementInfo is one admitted instance.
type PlacementInfo struct {
	Name  string  `json:"name"`
	Core  int     `json:"core"`
	Watts float64 `json:"watts"` // estimated processor power after this placement
}

// PlaceResponse answers POST /v1/place.
type PlaceResponse struct {
	Placements     []PlacementInfo `json:"placements"`
	EstimatedWatts float64         `json:"estimated_watts"`
}

// UnplaceResponse answers DELETE /v1/place/{name}.
type UnplaceResponse struct {
	Removed        string  `json:"removed"`
	EstimatedWatts float64 `json:"estimated_watts"`
}

// CoreState is one core's resident instances.
type CoreState = fleet.CoreState

// CacheState reports the feature-vector cache counters.
type CacheState struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// StateResponse answers GET /v1/state.
type StateResponse struct {
	Machine        string      `json:"machine"`
	Policy         string      `json:"policy"`
	Cores          []CoreState `json:"cores"`
	EstimatedWatts float64     `json:"estimated_watts"`
	Cache          CacheState  `json:"cache"`
}

// routes wires the mux. Method and path dispatch live in the patterns; the
// root fallback converts mux misses into typed 404s.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/profile", s.instrument("profile", s.handleProfile))
	s.mux.HandleFunc("POST /v1/predict", s.instrument("predict", s.handlePredict))
	s.mux.HandleFunc("POST /v1/assign", s.instrument("assign", s.handleAssign))
	s.mux.HandleFunc("POST /v1/place", s.instrument("place", s.handlePlace))
	s.mux.HandleFunc("DELETE /v1/place/{name}", s.instrument("unplace", s.handleUnplace))
	s.mux.HandleFunc("GET /v1/state", s.instrument("state", s.handleState))
	if s.fleet != nil {
		s.fleetRoutes()
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("/", s.instrument("not_found", func(w http.ResponseWriter, r *http.Request) error {
		return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: fmt.Sprintf("no route for %s %s", r.Method, r.URL.Path)}
	}))
}

// statusWriter records the status code a handler sent.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-request deadline, error
// rendering, metrics, and the structured request log line.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	// The endpoint's instruments are resolved once, not formatted and
	// looked up per request — but on first use, never at wrap time: an
	// instrument the registry has seen is exposed, and /metrics must list
	// only endpoints that have served a request.
	var (
		mu       sync.Mutex
		seconds  *metrics.Histogram
		requests = map[int]*metrics.Counter{} // by status code
	)
	observe := func(status int, elapsed time.Duration) {
		mu.Lock()
		c := requests[status]
		if c == nil {
			c = s.reg.Counter(fmt.Sprintf("requests_total{endpoint=%q,code=\"%d\"}", endpoint, status))
			requests[status] = c
		}
		if seconds == nil {
			seconds = s.reg.Histogram(fmt.Sprintf("request_seconds{endpoint=%q}", endpoint), nil)
		}
		mu.Unlock()
		c.Inc()
		seconds.Observe(elapsed.Seconds())
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w}
		err := h(sw, r.WithContext(ctx))
		errCode := ""
		if err != nil {
			ae := toAPIError(err)
			errCode = ae.Code
			if ae.RetryAfter > 0 {
				sw.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfter))
			}
			writeJSON(sw, ae.Status, errorEnvelope{Error: ae})
		}
		elapsed := time.Since(start)
		observe(sw.status, elapsed)
		// Typed attributes box nothing: the line costs the handler's own
		// allocations only.
		level, attrs := slog.LevelInfo, [6]slog.Attr{
			slog.String("endpoint", endpoint),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("dur_ms", float64(elapsed.Microseconds())/1000),
		}
		n := 5
		if errCode != "" {
			level, attrs[n] = slog.LevelWarn, slog.String("error", errCode)
			n++
		}
		s.log.LogAttrs(ctx, level, "request", attrs[:n]...)
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response; 5xx would miscount these as server faults.
const statusClientClosedRequest = 499

// toAPIError maps any handler error onto the typed wire error. Context
// errors are checked before placement sentinels so a rolled-back batch
// whose cause was cancellation reports the cancellation.
func toAPIError(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, context.Canceled):
		return &apiError{Status: statusClientClosedRequest, Code: "client_closed_request", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout, Code: "deadline_exceeded", Message: err.Error()}
	case errors.Is(err, fleet.ErrFleetFull):
		return &apiError{Status: http.StatusConflict, Code: "fleet_full", Message: err.Error()}
	case errors.Is(err, fleet.ErrQueueFull):
		// 429 with Retry-After: the queue drains as residents depart, so
		// "one second" is honest backpressure, not a magic number — it is
		// the shortest standard granularity, and clients double from there.
		return &apiError{Status: http.StatusTooManyRequests, Code: "queue_full", Message: err.Error(), RetryAfter: 1}
	case errors.Is(err, fleet.ErrUnknownNode):
		return &apiError{Status: http.StatusNotFound, Code: "unknown_node", Message: err.Error()}
	case errors.Is(err, manager.ErrMachineFull):
		return &apiError{Status: http.StatusConflict, Code: "machine_full", Message: err.Error()}
	case errors.Is(err, manager.ErrUnknownProcess):
		return &apiError{Status: http.StatusNotFound, Code: "unknown_process", Message: err.Error()}
	case errors.Is(err, core.ErrSearchSpace):
		// The client asked for more processes than can be ranked.
		return &apiError{Status: http.StatusBadRequest, Code: "search_too_large", Message: err.Error()}
	default:
		return &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
}

// checkMachine validates an optional machine pin against the serving
// machine, using the same name resolution the CLI flags use.
func (s *Server) checkMachine(name string) error {
	if name == "" || name == s.mach.Name {
		return nil
	}
	m, err := cli.MachineByName(name)
	if err != nil {
		return badRequest("unknown_machine", "%v", err)
	}
	if m.Name != s.mach.Name {
		return &apiError{
			Status:  http.StatusConflict,
			Code:    "machine_mismatch",
			Message: fmt.Sprintf("this server models %q, not %q", s.mach.Name, m.Name),
		}
	}
	return nil
}

// resolveBenches maps request benchmark names onto workload specs via the
// shared CLI parser, so the server and the tools accept exactly the same
// names and emit the same guidance on a miss.
func resolveBenches(names []string) ([]*workload.Spec, error) {
	if len(names) == 0 {
		return nil, badRequest("bad_request", "empty benchmark list")
	}
	for _, n := range names {
		if strings.TrimSpace(n) == "" {
			return nil, badRequest("bad_request", "blank benchmark name")
		}
	}
	specs, err := cli.ParseBenches(strings.Join(names, ","))
	if err != nil {
		return nil, badRequest("unknown_benchmark", "%v", err)
	}
	return specs, nil
}

// features resolves the feature vector of every spec in request order:
// cache hit, deduplicated wait, or a fresh profiling sweep (itself
// parallel per the configured workers).
func (s *Server) features(ctx context.Context, specs []*workload.Spec) ([]FeatureInfo, error) {
	out := make([]FeatureInfo, len(specs))
	for i, spec := range specs {
		f, cached, err := s.feats.get(ctx, spec)
		if err != nil {
			return nil, err
		}
		out[i] = FeatureInfo{Feature: f, Cached: cached}
	}
	return out, nil
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) error {
	var req ProfileRequest
	if err := decodeRequest(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return err
	}
	if err := s.checkMachine(req.Machine); err != nil {
		return err
	}
	specs, err := resolveBenches(req.Benches)
	if err != nil {
		return err
	}
	feats, err := s.features(r.Context(), specs)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, ProfileResponse{Machine: s.mach.Name, Features: feats})
	return nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) error {
	var req PredictRequest
	if err := decodeRequest(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return err
	}
	if err := s.checkMachine(req.Machine); err != nil {
		return err
	}
	solverName := req.Solver
	if solverName == "" {
		solverName = "auto"
	}
	solver, err := cli.SolverByName(solverName)
	if err != nil {
		return badRequest("unknown_solver", "%v", err)
	}
	specs, err := resolveBenches(req.Benches)
	if err != nil {
		return err
	}
	group := s.mach.Groups[0]
	if len(specs) > len(group) {
		return badRequest("group_too_large", "%d benchmarks exceed the %d cores sharing a cache on %s",
			len(specs), len(group), s.mach.Name)
	}
	feats, err := s.features(r.Context(), specs)
	if err != nil {
		return err
	}
	raw := make([]*core.FeatureVector, len(feats))
	for i, fi := range feats {
		raw[i] = fi.Feature
	}
	preds, err := core.PredictGroupContext(r.Context(), raw, s.mach.Assoc, solver)
	if err != nil {
		return fmt.Errorf("predicting group: %w", err)
	}
	resp := PredictResponse{Machine: s.mach.Name, Assoc: s.mach.Assoc, Solver: solverName}
	for _, p := range preds {
		resp.Predictions = append(resp.Predictions, PredictionInfo{
			Bench: p.Feature.Name, SWays: p.S, MPA: p.MPA, SPI: p.SPI,
		})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) error {
	var req AssignRequest
	if err := decodeRequest(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return err
	}
	if err := s.checkMachine(req.Machine); err != nil {
		return err
	}
	if req.Top < 0 {
		return badRequest("bad_request", "top must be non-negative")
	}
	specs, err := resolveBenches(req.Benches)
	if err != nil {
		return err
	}
	// Refuse an unrankable request before profiling anything for it.
	if _, err := core.SearchSpace(s.mach.NumCores, len(specs)); err != nil {
		return err
	}
	feats, err := s.features(r.Context(), specs)
	if err != nil {
		return err
	}
	raw := make([]*core.FeatureVector, len(feats))
	for i, fi := range feats {
		raw[i] = fi.Feature
	}
	top := req.Top
	if top == 0 {
		top = 5
	}
	// The search selects only the top candidates and builds only those.
	results, err := s.cm.BestAssignmentContext(r.Context(), raw, top)
	if err != nil {
		return fmt.Errorf("ranking assignments: %w", err)
	}
	evaluated, err := s.cm.SearchCandidates(len(raw))
	if err != nil {
		return err
	}
	resp := AssignResponse{Machine: s.mach.Name, Evaluated: evaluated}
	for _, res := range results {
		layout := make([][]string, len(res.Assignment))
		for c, fs := range res.Assignment {
			layout[c] = make([]string, 0, len(fs))
			for _, f := range fs {
				layout[c] = append(layout[c], f.Name)
			}
		}
		resp.Results = append(resp.Results, AssignResultInfo{Watts: res.Watts, Layout: layout})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) error {
	var req PlaceRequest
	if err := decodeRequest(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		return err
	}
	if err := s.checkMachine(req.Machine); err != nil {
		return err
	}
	specs, err := resolveBenches(req.Benches)
	if err != nil {
		return err
	}
	// Profile through the request's deadline first; PlaceAll then finds
	// every vector cached and placement itself is fast.
	if _, err := s.features(r.Context(), specs); err != nil {
		return err
	}
	placed, watts, err := s.place(r.Context(), specs)
	if err != nil {
		return err
	}
	resp := PlaceResponse{Placements: make([]PlacementInfo, len(placed)), EstimatedWatts: watts}
	for i, p := range placed {
		resp.Placements[i] = PlacementInfo{Name: p.Name, Core: p.Core, Watts: p.Watts}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// machineNode names the serving machine's node in the one-node fleet.
const machineNode = "machine"

// place admits specs on the serving machine as one batch, all or nothing,
// and returns the placements and the machine's estimate after them. A
// full machine answers 409 machine_full, and a batch rolled back after
// admitting part of itself counts in place_rollback_total.
func (s *Server) place(ctx context.Context, specs []*workload.Spec) ([]fleet.Placed, float64, error) {
	placed, err := s.one.PlaceAll(ctx, specs)
	if err != nil {
		if errors.Is(err, fleet.ErrRolledBack) {
			s.reg.Counter("place_rollback_total").Inc()
		}
		return nil, 0, onMachine(err)
	}
	watts, err := s.machineWatts(ctx)
	return placed, watts, err
}

// onMachine reports a one-node fleet's error as the single-machine routes
// do: no admissible slot is a full machine.
func onMachine(err error) error {
	if errors.Is(err, fleet.ErrFleetFull) {
		return &apiError{Status: http.StatusConflict, Code: "machine_full", Message: err.Error()}
	}
	return err
}

// machineWatts is the serving machine's estimated processor power.
func (s *Server) machineWatts(ctx context.Context) (float64, error) {
	_, watts, err := s.one.Totals(ctx)
	if err != nil {
		return 0, fmt.Errorf("estimating power: %w", err)
	}
	return watts, nil
}

func (s *Server) handleUnplace(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if _, err := s.one.Remove(r.Context(), machineNode, name); err != nil {
		return err
	}
	watts, err := s.machineWatts(r.Context())
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, UnplaceResponse{Removed: name, EstimatedWatts: watts})
	return nil
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) error {
	st, err := s.one.State(r.Context())
	if err != nil {
		return err
	}
	node := st.Nodes[0]
	cs := s.feats.lru.Stats()
	writeJSON(w, http.StatusOK, StateResponse{
		Machine:        s.mach.Name,
		Policy:         s.cfg.Policy.String(),
		Cores:          node.Cores,
		EstimatedWatts: node.EstimatedWatts,
		Cache: CacheState{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Entries: cs.Len, Capacity: cs.Cap,
		},
	})
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		s.log.Warn("metrics write failed", "error", err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "machine": s.mach.Name})
}
