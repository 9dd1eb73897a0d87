// Command profiler runs the Section 3.4 automated profiling for one
// benchmark and prints its feature vector: the measured MPA curve, the
// reconstructed reuse-distance histogram, the Eq. 3 line, and the
// power-profiling vector.
//
// Usage:
//
//	profiler -machine server -bench mcf [-method stressmark|ideal] [-seed N] [-workers N]
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
	"strings"
	"syscall"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/workload"
)

func main() {
	// ^C abandons the sweep between runs instead of waiting it out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command: it returns the exit code, 2 for a request that
// cannot be served as asked (bad flag, unknown machine, benchmark or
// method) and 1 for a failure while serving it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("profiler", flag.ContinueOnError)
	flags.SetOutput(stderr)
	machineName := flags.String("machine", "server", strings.Join(cli.MachineNames(), " | "))
	benchName := flags.String("bench", "mcf", "benchmark name (gzip, vpr, mcf, ...)")
	method := flags.String("method", "stressmark", "stressmark (paper) | ideal (partitioned)")
	seed := flags.Uint64("seed", 1, "profiling seed")
	workers := flags.Int("workers", 0, "concurrent sweep runs (0 = GOMAXPROCS); the feature vector is identical at any value")
	quick := flags.Bool("quick", false, "short profiling runs")
	jsonOut := flags.String("json", "", "write the feature vector to this file as JSON")
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
	spec := workload.ByName(*benchName)
	if spec == nil {
		fmt.Fprintf(stderr, "unknown benchmark %q\n", *benchName)
		return 2
	}
	opts := core.ProfileOptions{Seed: *seed, Workers: *workers}
	if *quick {
		opts.Warmup, opts.Duration = 1.5, 3
	}
	switch *method {
	case "stressmark":
		opts.Method = core.ProfileStressmark
	case "ideal":
		opts.Method = core.ProfileIdeal
	default:
		fmt.Fprintf(stderr, "unknown method %q\n", *method)
		return 2
	}

	fmt.Fprintf(stdout, "profiling %s on %s (%s, %d-way shared L2)...\n",
		spec.Name, m.Name, *method, m.Assoc)
	f, err := core.Profile(ctx, m, spec, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "\nfeature vector for %s:\n", f.Name)
	fmt.Fprintf(stdout, "  Eq. 3:  SPI = %.4g · MPA + %.4g   (API = %.4f refs/instr)\n", f.Alpha, f.Beta, f.API)
	fmt.Fprintf(stdout, "  power profile: P_alone = %.2f W, L1RPI=%.3f BRPI=%.3f FPPI=%.3f\n",
		f.PAloneProcessor, f.L1RPI, f.BRPI, f.FPPI)
	fmt.Fprintf(stdout, "\n  %4s %10s %12s %12s\n", "S", "MPA(S)", "analytic", "hist P(d=S)")
	for s := 0; s <= m.Assoc; s++ {
		analytic := spec.EffectiveMPA(float64(s))
		fmt.Fprintf(stdout, "  %4d %10.4f %12.4f %12.4f\n", s, f.MPACurve[s], analytic, f.Hist.P(s))
	}
	fmt.Fprintf(stdout, "  overflow (d > %d): %.4f\n", m.Assoc, f.Hist.Overflow())
	fmt.Fprintf(stdout, "\n  growth curve: G(10)=%.2f  G(100)=%.2f  G(1000)=%.2f  G(max)=%.2f ways\n",
		f.G(10), f.G(100), f.G(1000), f.GMax())

	if *jsonOut != "" {
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nfeature vector written to %s\n", *jsonOut)
	}
	return 0
}
