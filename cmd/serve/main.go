// Command serve runs the long-running prediction and placement service:
// the paper's run-time manager (Sections 3.4 and 5) behind an HTTP JSON
// API. It trains the power model once at startup, then serves profiling,
// co-run prediction, assignment ranking, and live placement, reusing each
// benchmark's feature vector from a bounded LRU cache so nothing is ever
// profiled twice.
//
// Usage:
//
//	serve -addr :8080 -machine server [-policy power-aware] [-max-per-core 2]
//	      [-fleet "workstation,workstation,server"] [-fleet-policy least-degradation]
//	      [-shards 4] [-state-dir /var/lib/mpmc] [-debug-addr 127.0.0.1:6060]
//
// -fleet attaches a multi-machine scheduler (the /v1/fleet endpoints);
// -shards splits it into independently locked node groups so placements
// on disjoint machines commit concurrently; -state-dir persists every
// fleet mutation to a snapshot+WAL directory (internal/wal) and recovers
// residents and the pending queue byte-identically on restart;
// -synthetic swaps trained models for the closed-form synthetic ones so
// the process is serving in milliseconds (smoke tests, recovery drills);
// -debug-addr opens net/http/pprof on a separate, private listener. See
// the README "Serving" and "Fleet" sections for curl examples and the
// metrics glossary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/metrics"
	"mpmc/internal/server"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

func main() {
	// The signal context is installed before training so ^C during the
	// (minutes-long, full-length) startup training aborts it promptly
	// instead of only taking effect once serving starts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it returns the exit code, 2 for a request that
// cannot be served as asked (bad flag, unknown machine or policy, a flag
// that needs another) and 1 for a failure while serving it. The service
// logs to stderr; stdout stays unused.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("serve", flag.ContinueOnError)
	flags.SetOutput(stderr)
	addr := flags.String("addr", ":8080", "listen address")
	machineName := flags.String("machine", "server", "server | workstation | laptop | little")
	policyName := flags.String("policy", "power-aware", "power-aware | least-loaded")
	maxPerCore := flags.Int("max-per-core", 0, "time-sharing depth cap per core (0 = unbounded)")
	seed := flags.Uint64("seed", 1, "base seed for profiling and training")
	quick := flags.Bool("quick", true, "short profiling/training runs")
	workers := flags.Int("workers", 0, "profiling/training concurrency (0 = GOMAXPROCS)")
	cacheCap := flags.Int("cache", 128, "feature-vector cache capacity (entries)")
	timeout := flags.Duration("timeout", 2*time.Minute, "per-request deadline")
	maxBody := flags.Int64("max-body", 1<<20, "request body size limit (bytes)")
	grace := flags.Duration("grace", 30*time.Second, "graceful-shutdown drain window")
	debugAddr := flags.String("debug-addr", "", "serve net/http/pprof on this extra listener (off by default; keep it private)")
	fleetSpec := flags.String("fleet", "", "comma-separated machine presets for a fleet (e.g. \"workstation,workstation,server\"); empty = no fleet surface")
	fleetPolicy := flags.String("fleet-policy", "least-degradation", "least-degradation | least-watts | binpack | spread | colocate-sharers | spread-sharers | least-energy | cap-aware")
	fleetCap := flags.Float64("fleet-cap", 0, "fleet-wide power budget in watts (0 = uncapped; adjustable at runtime via PUT /v1/fleet/cap)")
	fleetMaxPerCore := flags.Int("fleet-max-per-core", 2, "per-core time-sharing cap on fleet machines (0 = unbounded)")
	fleetQueueCap := flags.Int("fleet-queue-cap", 16, "fleet admission-queue capacity (0 = no queue)")
	scoreCache := flags.Int("score-cache", 0, "fleet score-memo capacity (0 = default, negative = solve cold; same answers either way)")
	shards := flags.Int("shards", 1, "fleet shard count: independently locked node groups (>1 enables concurrent commits; decisions are shard-count-invariant)")
	stateDir := flags.String("state-dir", "", "persist fleet placements to a snapshot+WAL directory and recover them on restart (requires -fleet)")
	synthetic := flags.Bool("synthetic", false, "use the closed-form synthetic power model and truth-table features instead of training (instant startup; smoke/recovery drills)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger := slog.New(slog.NewJSONHandler(stderr, nil))

	m, err := cli.MachineByName(*machineName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	policy, err := cli.PolicyByName(*policyName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *stateDir != "" && *fleetSpec == "" {
		fmt.Fprintln(stderr, "serve: -state-dir requires -fleet (it persists fleet placements)")
		return 2
	}

	// profile stays nil outside synthetic mode (nil = real profiling in
	// both the server and the fleet).
	var profile func(context.Context, *machine.Machine, *workload.Spec, core.ProfileOptions) (*core.FeatureVector, error)
	var pm *core.PowerModel
	if *synthetic {
		pm, err = core.SyntheticPowerModel()
		if err != nil {
			logger.Error("synthetic power model failed", "error", err.Error())
			return 1
		}
		profile = func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		}
		logger.Info("synthetic power model ready", "r2", pm.R2())
	} else {
		logger.Info("training power model", "machine", m.Name, "quick", *quick)
		trainStart := time.Now()
		pm, err = core.TrainPowerModel(ctx, m, workload.ModelSet(), cli.TrainOptions(*seed, *quick, *workers))
		if err != nil {
			if errors.Is(err, context.Canceled) {
				logger.Info("power-model training interrupted")
				return 1
			}
			logger.Error("power-model training failed", "error", err.Error())
			return 1
		}
		logger.Info("power model ready", "r2", pm.R2(), "train_seconds", time.Since(trainStart).Seconds())
	}

	// One registry shared by the server and the fleet, so the fleet gauges
	// show up in the same /metrics exposition.
	reg := metrics.NewRegistry()
	var fl fleetBackend
	var stateLog *wal.Log
	if *fleetSpec != "" {
		var journal func([]wal.Event)
		var recovered *wal.State
		if *stateDir != "" {
			stateLog, recovered, err = wal.Open(*stateDir)
			if err != nil {
				logger.Error("state directory open failed", "error", err.Error())
				return 1
			}
			l := stateLog
			journal = func(events []wal.Event) {
				if aerr := l.Append(events); aerr != nil {
					logger.Error("wal append failed", "error", aerr.Error())
				}
			}
			logger.Info("state directory opened", "dir", *stateDir,
				"residents", len(recovered.Residents), "queued", len(recovered.Queue))
		}
		fl, err = buildFleet(ctx, logger, reg, *fleetSpec, *fleetPolicy, *fleetMaxPerCore, *fleetQueueCap,
			*scoreCache, *shards, *fleetCap, m, pm, profile, journal, *seed, *quick, *synthetic, *workers)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				logger.Info("fleet construction interrupted")
				return 1
			}
			logger.Error("fleet construction failed", "error", err.Error())
			return 2
		}
		if recovered != nil {
			if err := fl.Recover(ctx, recovered); err != nil {
				logger.Error("state recovery failed", "error", err.Error())
				return 1
			}
			// Fold the replayed log into a fresh snapshot so restart cost
			// stays O(state), not O(history since the last compaction).
			if err := stateLog.Compact(); err != nil {
				logger.Warn("wal compaction failed", "error", err.Error())
			}
		}
	}

	if *debugAddr != "" {
		// pprof lives on its own listener so profiling endpoints are never
		// reachable through the public address. Register explicitly instead
		// of leaning on DefaultServeMux.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("pprof listener exited", "error", err.Error())
			}
		}()
	}

	scfg := server.Config{
		Machine:        m,
		Power:          pm,
		Profile:        profile,
		Seed:           *seed,
		Quick:          *quick,
		Workers:        *workers,
		Policy:         policy,
		MaxPerCore:     *maxPerCore,
		CacheCap:       *cacheCap,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Logger:         logger,
		Registry:       reg,
	}
	if fl != nil {
		// Assigned conditionally: a nil fleetBackend stuffed into the
		// config's interface field would read as "fleet attached".
		scfg.Fleet = fl
	}
	srv, err := server.New(scfg)
	if err != nil {
		logger.Error("server construction failed", "error", err.Error())
		return 1
	}

	logger.Info("serving", "addr", *addr, "machine", m.Name, "policy", policy.String(),
		"fleet", *fleetSpec != "", "shards", *shards, "durable", *stateDir != "")
	if err := srv.ListenAndServe(ctx, *addr, *grace); err != nil && err != http.ErrServerClosed {
		logger.Error("server exited", "error", err.Error())
		return 1
	}
	if stateLog != nil {
		// The graceful drain above finished every in-flight mutation, so
		// the log is quiescent; close it cleanly.
		if err := stateLog.Close(); err != nil {
			logger.Warn("wal close failed", "error", err.Error())
		}
	}
	logger.Info("stopped")
	return 0
}

// fleetBackend is what buildFleet returns: the HTTP tier's scheduler
// surface plus WAL recovery. Both *fleet.Fleet and *fleet.Sharded
// satisfy it.
type fleetBackend interface {
	server.FleetBackend
	Recover(ctx context.Context, st *wal.State) error
}

// buildFleet assembles the cluster scheduler from a comma-separated preset
// list. Each distinct preset needs its own trained power model (Eq. 9
// coefficients are per machine); the serving machine's model is reused
// when a preset matches it, and the rest train here, once per kind — in
// synthetic mode the shared closed-form model serves every preset and no
// training happens. shards > 1 builds the independently locked node
// groups; journal, when non-nil, receives every completed mutation's WAL
// events.
func buildFleet(ctx context.Context, logger *slog.Logger, reg *metrics.Registry,
	spec, policyName string, maxPerCore, queueCap, scoreCacheCap, shards int, powerCap float64,
	served *machine.Machine, servedPM *core.PowerModel,
	profile func(context.Context, *machine.Machine, *workload.Spec, core.ProfileOptions) (*core.FeatureVector, error),
	journal func([]wal.Event),
	seed uint64, quick, synthetic bool, workers int) (fleetBackend, error) {

	policy, err := fleet.ParsePolicy(policyName)
	if err != nil {
		return nil, err
	}
	models := map[string]*core.PowerModel{served.Name: servedPM}
	var nodes []fleet.NodeConfig
	for _, preset := range strings.Split(spec, ",") {
		preset = strings.TrimSpace(preset)
		m, err := cli.MachineByName(preset)
		if err != nil {
			return nil, err
		}
		pm, ok := models[m.Name]
		if !ok {
			if synthetic {
				pm = servedPM
			} else {
				logger.Info("training fleet power model", "machine", m.Name, "quick", quick)
				pm, err = core.TrainPowerModel(ctx, m, workload.ModelSet(), cli.TrainOptions(seed, quick, workers))
				if err != nil {
					return nil, fmt.Errorf("training power model for %s: %w", m.Name, err)
				}
			}
			models[m.Name] = pm
		}
		nodes = append(nodes, fleet.NodeConfig{
			Machine:    m,
			Power:      pm,
			MaxPerCore: maxPerCore,
		})
	}
	cfg := fleet.Config{
		Nodes:         nodes,
		Policy:        policy,
		QueueCap:      queueCap,
		Seed:          seed,
		Quick:         quick,
		Workers:       workers,
		ScoreCacheCap: scoreCacheCap,
		PowerCap:      powerCap,
		Registry:      reg,
		Profile:       profile,
		Journal:       journal,
	}
	// Explicit nil returns on error: `return fleet.New(cfg)` would wrap a
	// nil concrete pointer in a non-nil interface.
	if shards > 1 {
		s, err := fleet.NewSharded(cfg, shards)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	return f, nil
}
