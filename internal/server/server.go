// Package server is the long-running face of the paper's run-time manager
// (Sections 3.4 and 5): a resident HTTP JSON service that profiles an
// arriving process once, keeps the resulting feature vector in a bounded
// LRU cache, and then answers "what if I placed this here?" queries
// against the combined performance/power model without ever re-profiling —
// the amortization a one-shot CLI cannot provide.
//
// Endpoints:
//
//	POST   /v1/profile      profile benchmarks (cache + singleflight)
//	POST   /v1/predict      co-run equilibrium prediction for one cache group
//	POST   /v1/assign       combined-model ranking of all assignments (what-if)
//	POST   /v1/place        admit instances into the resident assignment
//	DELETE /v1/place/{name} remove a resident instance (process exit)
//	GET    /v1/state        resident assignment, estimated power, cache stats
//	GET    /metrics         Prometheus text exposition
//	GET    /healthz         liveness
//
// When Config.Fleet attaches a cluster scheduler, the /v1/fleet surface is
// served too (see fleet_handlers.go):
//
//	POST /v1/fleet/place      admit instances fleet-wide
//	POST /v1/fleet/rebalance  one cross-machine rebalance pass
//	GET  /v1/fleet/state      per-machine residents and model estimates
//
// Production hygiene: every request runs under a context deadline, bodies
// are size-capped, errors are typed JSON, each request emits one structured
// log line, and shutdown drains in-flight profiling runs.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"mpmc/internal/cache"
	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// ProfileFunc runs one profiling sweep. The default is core.Profile; tests
// substitute fakes to control latency and count invocations.
type ProfileFunc func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error)

// Config assembles a Server.
type Config struct {
	// Machine is the modeled machine (required).
	Machine *machine.Machine
	// Power is the trained power model (required; training happens once at
	// startup, outside this package).
	Power *core.PowerModel
	// Seed is the base profiling seed; per-benchmark run seeds derive from
	// it by name (core.ProfileSeed), so responses are reproducible.
	Seed uint64
	// Quick selects short profiling runs (the CLI -quick convention).
	Quick bool
	// Workers bounds each in-request profiling sweep's concurrency
	// (<= 0 selects GOMAXPROCS); results are identical at any setting.
	Workers int
	// Policy and MaxPerCore configure the resident placement manager.
	Policy     manager.Policy
	MaxPerCore int
	// CacheCap bounds the feature-vector LRU (0 = 128 entries).
	CacheCap int
	// RequestTimeout is the per-request context deadline (0 = 2 minutes;
	// profiling sweeps run inside requests, so this is generous).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// Logger receives one structured line per request (nil = slog default).
	Logger *slog.Logger
	// Registry receives the service metrics (nil = fresh registry).
	Registry *metrics.Registry
	// Profile overrides the profiling implementation (nil = core.Profile).
	Profile ProfileFunc
	// Fleet optionally attaches a cluster scheduler; when set, the
	// /v1/fleet/* routes are served. Both *fleet.Fleet and *fleet.Sharded
	// satisfy the interface. Pass the same Registry to the fleet and the
	// server so the fleet gauges appear in this server's /metrics.
	// Assign conditionally — a typed-nil pointer in the interface would
	// read as "fleet present".
	Fleet FleetBackend
}

// FleetBackend is the cluster-scheduler surface the HTTP tier serves.
// *fleet.Fleet implements it directly, and *fleet.Sharded through the
// whole-fleet Fleet it embeds. Both pump the queue through one optimistic
// loop (a standalone fleet is its own single shard); Sharded overrides
// only PlaceWith (optimistic instead of all-locked) and Remove (one shard
// lock), so single placements on disjoint machines commit concurrently.
// Every other method is the same Fleet code run over the whole node list
// under every shard lock.
type FleetBackend interface {
	PlaceWith(ctx context.Context, spec *workload.Spec, opts fleet.PlaceOptions) (fleet.Placed, error)
	PlaceAll(ctx context.Context, specs []*workload.Spec) ([]fleet.Placed, error)
	PlaceGroup(ctx context.Context, g threads.GroupSpec) ([]fleet.Placed, error)
	SubmitWith(spec *workload.Spec, tag string, priority int) (int, error)
	CancelQueued(ticket int) bool
	QueueDepth() int
	Pump(ctx context.Context) ([]fleet.Placed, error)
	Remove(ctx context.Context, node, instance string) ([]fleet.Placed, error)
	Rebalance(ctx context.Context, minImprovement float64) (fleet.Move, error)
	State(ctx context.Context) (*fleet.State, error)
	PowerCap() float64
	CapUsage() float64
	SetPowerCap(ctx context.Context, watts float64) error
	EnforceCap(ctx context.Context) (fleet.CapReport, error)
}

// Server is the resident prediction and placement service.
type Server struct {
	cfg     Config
	mach    *machine.Machine
	cm      *core.CombinedModel
	mgr     *manager.Manager
	feats   *featureCache
	fleet   FleetBackend
	tickets *ticketStore
	// asyncWG tracks async placement workers so graceful shutdown drains
	// them: an accepted ticket either completes or fails visibly, never
	// silently dies with the process.
	asyncWG sync.WaitGroup
	reg     *metrics.Registry
	log     *slog.Logger
	mux     *http.ServeMux
}

// New validates cfg, applies defaults, and assembles the service.
func New(cfg Config) (*Server, error) {
	if cfg.Machine == nil {
		return nil, errors.New("server: Config.Machine is required")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Power == nil {
		return nil, errors.New("server: Config.Power is required")
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 128
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Profile == nil {
		cfg.Profile = core.Profile
	}

	s := &Server{
		cfg:     cfg,
		mach:    cfg.Machine,
		cm:      core.NewCombinedModel(cfg.Machine, cfg.Power),
		fleet:   cfg.Fleet,
		tickets: newTicketStore(),
		reg:     cfg.Registry,
		log:     cfg.Logger,
	}
	s.feats = newFeatureCache(s)
	s.mgr = manager.New(cfg.Machine, cfg.Power, manager.Options{
		Policy:     cfg.Policy,
		MaxPerCore: cfg.MaxPerCore,
		Profile:    core.ProfileOptions{Seed: cfg.Seed, Workers: cfg.Workers},
		Features:   s.feats,
	})
	s.reg.OnCollect(s.collectCacheMetrics)
	s.routes()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry (for tests and embedding).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// ListenAndServe runs the service on addr until ctx is cancelled, then
// shuts down gracefully, draining in-flight requests (profiling included)
// AND in-flight async placement workers for up to grace. The async drain
// runs after the HTTP drain: an accepted ticket's placement either
// commits or fails visibly before the process exits, so the fleet's
// queue ledger (submitted = admitted + abandoned + dropped + depth)
// balances across a shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string, grace time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("shutting down", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return s.drainAsync(shutdownCtx)
}

// drainAsync waits for outstanding async placement workers within the
// shutdown grace window.
func (s *Server) drainAsync(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.asyncWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: async placements still in flight: %w", ctx.Err())
	}
}

// featureCache is the server's FeatureSource: a bounded LRU of profiled
// feature vectors in front of the (expensive) profiling sweep, with
// singleflight deduplication so a burst of requests for one unprofiled
// benchmark triggers exactly one run.
type featureCache struct {
	s      *Server
	lru    *cache.LRUMap[*core.FeatureVector]
	flight cache.Flight[*core.FeatureVector]

	runs     *metrics.Counter // profiling sweeps actually executed
	dedups   *metrics.Counter // callers served by another caller's run
	inflight *metrics.Gauge   // sweeps currently executing
}

func newFeatureCache(s *Server) *featureCache {
	return &featureCache{
		s:        s,
		lru:      cache.NewLRUMap[*core.FeatureVector](s.cfg.CacheCap),
		runs:     s.reg.Counter("profile_runs_total"),
		dedups:   s.reg.Counter("profile_dedup_total"),
		inflight: s.reg.Gauge("profile_inflight"),
	}
}

// FeatureOf implements manager.FeatureSource: placement profiling runs
// under the request context that triggered it, so a client disconnect or
// deadline abandons the sweep like any direct profile request.
func (fc *featureCache) FeatureOf(ctx context.Context, spec *workload.Spec) (*core.FeatureVector, error) {
	f, _, err := fc.get(ctx, spec)
	return f, err
}

// get returns the feature vector for spec, profiling on a miss. cached
// reports whether the LRU already held the vector.
func (fc *featureCache) get(ctx context.Context, spec *workload.Spec) (f *core.FeatureVector, cached bool, err error) {
	if f, ok := fc.lru.Get(spec.Name); ok {
		return f, true, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	f, err, shared := fc.flight.Do(spec.Name, func() (*core.FeatureVector, error) {
		// Double-check under the flight: a caller that missed the LRU while
		// another run was completing must not start a second sweep.
		if f, ok := fc.lru.Get(spec.Name); ok {
			return f, nil
		}
		fc.inflight.Inc()
		defer fc.inflight.Dec()
		fc.runs.Inc()
		fcfg := cli.FeatureConfig{Seed: fc.s.cfg.Seed, Quick: fc.s.cfg.Quick, Workers: fc.s.cfg.Workers}
		f, err := fc.s.cfg.Profile(ctx, fc.s.mach, spec, fcfg.ProfileOptions(spec.Name))
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// The sweep was cut short by cancellation, not a profiling
				// failure; nothing was cached, a retry starts clean.
				fc.s.reg.Counter("profile_abandoned_total").Inc()
			}
			return nil, fmt.Errorf("profiling %s: %w", spec.Name, err)
		}
		fc.lru.Put(spec.Name, f)
		return f, nil
	})
	if shared {
		fc.dedups.Inc()
	}
	if err != nil {
		return nil, false, err
	}
	return f, false, nil
}

// collectCacheMetrics refreshes the cache gauges right before a scrape.
func (s *Server) collectCacheMetrics(r *metrics.Registry) {
	st := s.feats.lru.Stats()
	r.Gauge("feature_cache_hits_total").Set(int64(st.Hits))
	r.Gauge("feature_cache_misses_total").Set(int64(st.Misses))
	r.Gauge("feature_cache_evictions_total").Set(int64(st.Evictions))
	r.Gauge("feature_cache_entries").Set(int64(st.Len))
	r.Gauge("feature_cache_capacity").Set(int64(st.Cap))
}
