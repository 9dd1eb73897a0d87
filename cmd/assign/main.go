// Command assign is the power-aware assignment application of Section 5:
// it profiles the given benchmarks, trains the power model, estimates the
// processor power of every process-to-core mapping with the combined
// model, and prints the ranking. With -verify, the best and worst
// assignments are also simulated and their measured powers compared.
//
// Usage:
//
//	assign -machine server -benches mcf,art,gzip,vpr [-verify] [-top 5]
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
	// ^C abandons training, profiling, and the ranking search promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it returns the exit code, 2 for a request that
// cannot be served as asked (bad flag, unknown machine or benchmark, more
// benchmarks than can be ranked) and 1 for a failure while serving it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("assign", flag.ContinueOnError)
	flags.SetOutput(stderr)
	machineName := flags.String("machine", "server", strings.Join(cli.MachineNames(), " | "))
	benches := flags.String("benches", "mcf,art,gzip,vpr", "comma-separated benchmarks to place")
	verify := flags.Bool("verify", false, "simulate the best and worst assignments")
	top := flags.Int("top", 5, "how many assignments to print")
	seed := flags.Uint64("seed", 1, "seed")
	quick := flags.Bool("quick", true, "short profiling/training runs")
	workers := flags.Int("workers", 0, "profiling/training concurrency (0 = GOMAXPROCS)")
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
	specs, err := cli.ParseBenches(*benches)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Refuse an unrankable request before training or profiling for it.
	if _, err := core.SearchSpace(m.NumCores, len(specs)); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fmt.Fprintf(stdout, "training the power model on %s...\n", m.Name)
	pm, err := core.TrainPowerModel(ctx, m, workload.ModelSet(), cli.TrainOptions(*seed, *quick, *workers))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cm := core.NewCombinedModel(m, pm)

	// The same request-building path the server's /v1/assign uses.
	fc := cli.FeatureConfig{
		Seed:    *seed,
		Quick:   *quick,
		Workers: *workers,
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

	results, err := cm.BestAssignmentContext(ctx, features, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\n%d distinct assignments evaluated with the combined model:\n", len(results))
	show := *top
	if show > len(results) {
		show = len(results)
	}
	for i := 0; i < show; i++ {
		fmt.Fprintf(stdout, "  #%d  %6.2f W   %s\n", i+1, results[i].Watts, layout(results[i].Assignment))
	}
	if len(results) > show {
		last := results[len(results)-1]
		fmt.Fprintf(stdout, "  ...\n  worst %6.2f W   %s\n", last.Watts, layout(last.Assignment))
	}

	if !*verify {
		return 0
	}
	fmt.Fprintln(stdout, "\nverifying best and worst by simulation...")
	for _, which := range []struct {
		name string
		r    core.AssignmentResult
	}{{"best", results[0]}, {"worst", results[len(results)-1]}} {
		procs := make([][]*workload.Spec, m.NumCores)
		for c, fs := range which.r.Assignment {
			for _, f := range fs {
				procs[c] = append(procs[c], workload.ByName(f.Name))
			}
		}
		opts := sim.Options{Warmup: 3, Duration: 8, Seed: *seed + 5000}
		if *quick {
			opts.Warmup, opts.Duration = 2, 4
		}
		measured, err := sim.Run(m, sim.Assignment{Procs: procs}, opts)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		meas := measured.AvgMeasuredPower()
		fmt.Fprintf(stdout, "  %-5s estimated %6.2f W, measured %6.2f W (err %+.2f%%)\n",
			which.name, which.r.Watts, meas, 100*(which.r.Watts-meas)/meas)
	}
	return 0
}

// layout renders an assignment as core→benchmark lists.
func layout(asg core.Assignment) string {
	var parts []string
	for c, fs := range asg {
		if len(fs) == 0 {
			parts = append(parts, fmt.Sprintf("c%d:idle", c))
			continue
		}
		var names []string
		for _, f := range fs {
			names = append(names, f.Name)
		}
		parts = append(parts, fmt.Sprintf("c%d:%s", c, strings.Join(names, "+")))
	}
	return strings.Join(parts, " ")
}
