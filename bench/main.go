// Command bench is the repository's one benchmark: six named workloads
// through the real cmd/serve binary and the model library, measured from
// outside. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	bash bench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the run's
// counts and metrics; everything else goes to standard error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

var workloadNames = []string{
	"serve_warm", "serve_durable", "serve_cold",
	"fleet_sim", "assign_search", "profile_sweep",
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", strings.Join(workloadNames, " | ")+" | all")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the layer ladder")
	root := flag.String("root", ".", "repository checkout")
	serveBin := flag.String("serve-bin", "", "prebuilt cmd/serve (default: built into the scratch directory)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload in two sets and compare them against the bounds in BENCHMARK.json")
	flag.Parse()

	e := &env{root: *root, serveBin: *serveBin, clean: &cleanup{}}
	if _, err := os.Stat(filepath.Join(e.root, "cmd", "serve")); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s is not the repository checkout: %v\n", e.root, err)
		return 2
	}
	e.out = filepath.Join(e.root, ".bench_build", "out")
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	e.clean.onSignal()
	defer e.clean.run()

	if *selfcheck {
		return selfCheck(e, *seconds)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		rep, err := runWorkload(context.Background(), e, name, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		fmt.Println(rep.line())
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload once and prints its failed output checks.
func runWorkload(ctx context.Context, e *env, name string, seed int64, seconds float64, traced bool) (report, error) {
	var o *outcome
	var err error
	switch sp, isServe := serveSpecs[name]; {
	case isServe && traced:
		o, err = traceServe(ctx, e, sp, seed, seconds)
	case isServe:
		o, err = runServe(ctx, e, sp, seed, seconds)
	default:
		w, ok := inprocWorkloads[name]
		if !ok {
			return report{}, fmt.Errorf("unknown workload (want %s)", strings.Join(workloadNames, ", "))
		}
		o, err = runInproc(ctx, e, name, w, seed, seconds, traced)
	}
	if err != nil {
		return report{}, err
	}
	rep := o.toReport(traced)
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", name, p)
	}
	if o.digest != "" {
		fmt.Fprintf(os.Stderr, "%s seed %d decision digest %s\n", name, seed, o.digest)
	}
	return rep, nil
}
