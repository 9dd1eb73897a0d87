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
	"flag"
	"fmt"
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
	machineName := flag.String("machine", "server", strings.Join(cli.MachineNames(), " | "))
	benches := flag.String("benches", "mcf,art", "comma-separated benchmark names sharing one cache")
	verify := flag.Bool("verify", false, "also simulate the co-run and compare")
	truth := flag.Bool("truth", false, "use analytic oracle features instead of profiling")
	solverName := flag.String("solver", "auto", "auto | newton | window")
	seed := flag.Uint64("seed", 1, "seed")
	quick := flag.Bool("quick", false, "short runs")
	workers := flag.Int("workers", 0, "profiling sweep concurrency (0 = GOMAXPROCS)")
	load := flag.String("load", "", "directory of saved <bench>.json feature vectors (see profiler -json)")
	flag.Parse()

	m, err := cli.MachineByName(*machineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	solver, err := cli.SolverByName(*solverName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	specs, err := cli.ParseBenches(*benches)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	group := m.Groups[0]
	if len(specs) > len(group) {
		fmt.Fprintf(os.Stderr, "%d benchmarks exceed the %d cores sharing a cache on %s\n",
			len(specs), len(group), m.Name)
		os.Exit(2)
	}

	// The same request-building path the server's /v1/predict uses.
	fc := cli.FeatureConfig{
		Seed:    *seed,
		Quick:   *quick,
		Workers: *workers,
		Truth:   *truth,
		LoadDir: *load,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	// ^C abandons profiling and solving instead of waiting them out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	features, err := fc.BuildFeatures(ctx, m, specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	preds, err := core.PredictGroupContext(ctx, features, m.Assoc, solver)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nequilibrium prediction on %s (%d-way shared L2):\n", m.Name, m.Assoc)
	fmt.Printf("  %-8s %8s %10s %14s\n", "bench", "S(ways)", "MPA", "SPI(s/instr)")
	for _, p := range preds {
		fmt.Printf("  %-8s %8.2f %10.4f %14.4g\n", p.Feature.Name, p.S, p.MPA, p.SPI)
	}

	if !*verify {
		return
	}
	procs := make([][]*workload.Spec, m.NumCores)
	for i, s := range specs {
		procs[group[i]] = []*workload.Spec{s}
	}
	opts := sim.Options{Warmup: 3, Duration: 8, Seed: *seed + 1000}
	if *quick {
		opts.Warmup, opts.Duration = 2, 4
	}
	fmt.Println("\nsimulating the co-run for verification...")
	run, err := sim.Run(m, sim.Assignment{Procs: procs}, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("  %-8s %8s %10s %14s %10s %9s\n", "bench", "S(ways)", "MPA", "SPI(s/instr)", "MPA err", "SPI err")
	for i, p := range run.Procs {
		mpaErr := preds[i].MPA - p.MPA()
		spiErr := 100 * (preds[i].SPI - p.SPI()) / p.SPI()
		fmt.Printf("  %-8s %8.2f %10.4f %14.4g %+10.4f %+8.2f%%\n",
			p.Spec.Name, p.AvgWays, p.MPA(), p.SPI(), mpaErr, spiErr)
	}
}
