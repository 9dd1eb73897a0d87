// Command fleet runs the deterministic fleet simulator: a seeded arrival
// trace replayed under each placement policy on a virtual clock, reporting
// fleet-wide time-weighted predicted SPI and watts per policy. The same
// scenario file always produces byte-identical output, at any -workers
// value, so the report doubles as a golden artifact in CI.
//
// With -chaos-seed set, the scenario instead replays under the chaos
// harness (internal/chaos): a seed-deterministic fault schedule — injected
// profiling/scoring/placement errors, context cancellations, machine loss,
// queue-pressure bursts — with every model invariant checked after every
// event. -chaos-preempt-rate additionally schedules high-priority
// arrivals (the preemption fault class): they evict lower-class residents
// on a full fleet, some with commit faults armed to force the
// transactional rollback, and the harness checks victims are always
// requeued or reported and that no priority inversion survives
// consecutive fault-free pumps. The transcript is byte-identical for a
// fixed (scenario, -chaos-seed, -chaos-rate, -chaos-preempt-rate) at any
// -workers value, so it too is pinned as a golden in CI.
//
// With -serve-stress set to an op count, the command instead runs the
// sustained-load lane for the sharded serving tier: concurrent clients
// churning placements against one sharded fleet, wall-clock timed,
// reporting placements/sec and latency percentiles as JSON. That lane
// is intentionally nondeterministic (it measures the concurrency
// ceiling, not decisions).
//
// Usage:
//
//	fleet -scenario scenario.json [-workers 4] [-o report.json]
//	fleet -scenario scenario.json -chaos-seed 1 [-chaos-rate 0.25] [-chaos-preempt-rate 0.5]
//	      [-chaos-cap-rate 0.5 -chaos-cap-watts 220]
//	fleet -serve-stress 40000 [-serve-machines 24] [-serve-shards 4] [-serve-clients 8] [-seed 1]
//
// See the README "Fleet" section for the scenario schema.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"mpmc/internal/chaos"
	"mpmc/internal/fleet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: usage errors exit 2 before any work, failures 1.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("fleet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	scenario := flags.String("scenario", "", "scenario JSON file (required)")
	workers := flags.Int("workers", 0, "scoring concurrency (0 = GOMAXPROCS; never affects output)")
	scoreCache := flags.Int("score-cache", 0, "score-memo capacity per replayed fleet (0 = default, negative = solve cold; never affects output)")
	out := flags.String("o", "", "write the report to this file instead of stdout")
	chaosSeed := flags.Uint64("chaos-seed", 0, "run the chaos harness with this fault-schedule seed")
	chaosRate := flags.Float64("chaos-rate", 0.25, "chaos fault intensity in [0,1] (with -chaos-seed)")
	preemptRate := flags.Float64("chaos-preempt-rate", 0, "preemption fault-class intensity in [0,1]: schedules high-priority arrivals, some with commit faults (with -chaos-seed)")
	capRate := flags.Float64("chaos-cap-rate", 0, "cap-flip fault-class intensity in [0,1]: schedules power-budget flips with enforcement passes (with -chaos-seed)")
	capWatts := flags.Float64("chaos-cap-watts", 0, "engaged power budget in watts for cap flips (required with -chaos-cap-rate)")
	serveOps := flags.Int("serve-stress", 0, "run the sustained-load serving lane with this many placement ops (0 = off; ignores -scenario)")
	serveMachines := flags.Int("serve-machines", 24, "serving-lane fleet size (with -serve-stress)")
	serveShards := flags.Int("serve-shards", 4, "serving-lane shard count (with -serve-stress)")
	serveClients := flags.Int("serve-clients", 8, "serving-lane concurrent churn clients (with -serve-stress)")
	seed := flags.Uint64("seed", 1, "serving-lane workload-draw seed (with -serve-stress)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *serveOps > 0 {
		rep, err := fleet.RunServeStress(ctx, fleet.ServeStressConfig{
			Machines: *serveMachines,
			Shards:   *serveShards,
			Clients:  *serveClients,
			Ops:      *serveOps,
			Seed:     *seed,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return writeReport(rep, *out, stdout, stderr)
	}

	if *scenario == "" {
		fmt.Fprintln(stderr, "fleet: -scenario is required")
		flags.Usage()
		return 2
	}
	if *capRate > 0 && *capWatts <= 0 {
		fmt.Fprintln(stderr, "fleet: -chaos-cap-rate needs a positive -chaos-cap-watts")
		return 2
	}
	chaosMode := false
	flags.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "chaos-seed", "chaos-rate", "chaos-preempt-rate", "chaos-cap-rate", "chaos-cap-watts":
			chaosMode = true
		}
	})
	sc, err := fleet.LoadScenario(*scenario)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	sim := fleet.NewSim(sc, *workers)
	sim.ScoreCacheCap = *scoreCache
	var report any
	if chaosMode {
		report, err = chaos.NewHarness(sim, chaos.Options{
			Seed:        *chaosSeed,
			Rate:        *chaosRate,
			PreemptRate: *preemptRate,
			CapRate:     *capRate,
			CapWatts:    *capWatts,
		}).Run(ctx)
	} else {
		report, err = sim.Run(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return writeReport(report, *out, stdout, stderr)
}

// writeReport marshals the report (indented, trailing newline) to the
// file, or to stdout when the path is empty.
func writeReport(report any, out string, stdout, stderr io.Writer) int {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data = append(data, '\n')
	if out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
