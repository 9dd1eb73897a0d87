// Command predict runs the performance model for a co-run group: it
// profiles the named benchmarks (or uses analytic oracle features), solves
// the cache-contention equilibrium, and optionally verifies the prediction
// against a simulated co-run.
//
// Usage:
//
//	predict -machine server -benches mcf,art [-verify] [-truth] [-solver auto]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/sim"
	"mpmc/internal/workload"
)

func main() {
	// ^C abandons profiling and solving instead of waiting them out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it returns the exit code, 2 for a request that
// cannot be served as asked (bad flag, unknown machine, solver or
// benchmark, more benchmarks than cores sharing a cache) and 1 for a
// failure while serving it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("predict", flag.ContinueOnError)
	flags.SetOutput(stderr)
	machineName := flags.String("machine", "server", strings.Join(cli.MachineNames(), " | "))
	benches := flags.String("benches", "mcf,art", "comma-separated benchmark names sharing one cache")
	verify := flags.Bool("verify", false, "also simulate the co-run and compare")
	truth := flags.Bool("truth", false, "use analytic oracle features instead of profiling")
	solverName := flags.String("solver", "auto", "auto | newton | window")
	seed := flags.Uint64("seed", 1, "seed")
	quick := flags.Bool("quick", false, "short runs")
	workers := flags.Int("workers", 0, "profiling sweep concurrency (0 = GOMAXPROCS)")
	load := flags.String("load", "", "directory of saved <bench>.json feature vectors (see profiler -json)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	m, err := cli.MachineByName(*machineName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	solver, err := cli.SolverByName(*solverName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	specs, err := cli.ParseBenches(*benches)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	group := m.Groups[0]
	if len(specs) > len(group) {
		fmt.Fprintf(stderr, "%d benchmarks exceed the %d cores sharing a cache on %s\n",
			len(specs), len(group), m.Name)
		return 2
	}

	// The same request-building path the server's /v1/predict uses.
	fc := cli.FeatureConfig{
		Seed:    *seed,
		Quick:   *quick,
		Workers: *workers,
		Truth:   *truth,
		LoadDir: *load,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	}
	features, err := fc.BuildFeatures(ctx, m, specs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	preds, err := core.PredictGroupContext(ctx, features, m.Assoc, solver)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\nequilibrium prediction on %s (%d-way shared L2):\n", m.Name, m.Assoc)
	fmt.Fprintf(stdout, "  %-8s %8s %10s %14s\n", "bench", "S(ways)", "MPA", "SPI(s/instr)")
	for _, p := range preds {
		fmt.Fprintf(stdout, "  %-8s %8.2f %10.4f %14.4g\n", p.Feature.Name, p.S, p.MPA, p.SPI)
	}

	if !*verify {
		return 0
	}
	procs := make([][]*workload.Spec, m.NumCores)
	for i, s := range specs {
		procs[group[i]] = []*workload.Spec{s}
	}
	opts := sim.Options{Warmup: 3, Duration: 8, Seed: *seed + 1000}
	if *quick {
		opts.Warmup, opts.Duration = 2, 4
	}
	fmt.Fprintln(stdout, "\nsimulating the co-run for verification...")
	sr, err := sim.Run(m, sim.Assignment{Procs: procs}, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "  %-8s %8s %10s %14s %10s %9s\n", "bench", "S(ways)", "MPA", "SPI(s/instr)", "MPA err", "SPI err")
	for i, p := range sr.Procs {
		mpaErr := preds[i].MPA - p.MPA()
		spiErr := 100 * (preds[i].SPI - p.SPI()) / p.SPI()
		fmt.Fprintf(stdout, "  %-8s %8.2f %10.4f %14.4g %+10.4f %+8.2f%%\n",
			p.Spec.Name, p.AvgWays, p.MPA(), p.SPI(), mpaErr, spiErr)
	}
	return 0
}
