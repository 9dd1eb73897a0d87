// Command experiments regenerates the paper's evaluation: every table and
// figure (E1–E9 in DESIGN.md) plus the design-choice ablations.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-workers N] [-list] [id ...]
//
// With no ids, the full suite runs in DESIGN.md order. Examples:
//
//	experiments table1 table4
//	experiments -quick all
//	experiments figure2 > figure2.txt
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mpmc/internal/exp"
	"mpmc/internal/power"
)

type experiment struct {
	id, desc string
	run      func(*exp.Context) (interface{ Format() string }, error)
}

func wrap[T interface{ Format() string }](f func(*exp.Context) (T, error)) func(*exp.Context) (interface{ Format() string }, error) {
	return func(x *exp.Context) (interface{ Format() string }, error) {
		return f(x)
	}
}

var experiments = []experiment{
	{"table1", "E1: performance model validation, 4-core server (Table 1)", wrap(exp.Table1)},
	{"perf2", "E2: performance model on the 2-core laptop, 55 pairs (Sec. 6.2)", wrap(exp.PerfSecondMachine)},
	{"figure2", "E3: power traces for max/min-power assignments (Figure 2)", wrap(exp.Figure2)},
	{"table2", "E4: power model validation, 2-core workstation (Table 2)", wrap(exp.Table2)},
	{"table3", "E5: power model validation, 4-core server (Table 3)", wrap(exp.Table3)},
	{"table4", "E6: combined model validation, 4-core server (Table 4)", wrap(exp.Table4)},
	{"prefetch", "E7: hardware prefetching study (Sec. 3.1)", wrap(exp.PrefetchStudy)},
	{"mvlrnn", "E8: MVLR vs neural network accuracy (Sec. 4.1)", wrap(exp.MVLRvsNN)},
	{"ctxswitch", "E9: context-switch cache-refill cost (Sec. 4.2)", wrap(exp.ContextSwitchStudy)},
	{"solver", "Ablation: Newton–Raphson vs window bisection", wrap(exp.SolverAblation)},
	{"profiling", "Ablation: stressmark vs ideal profiling", wrap(exp.ProfilingAblation)},
	{"powerabl", "Ablation: Eq. 9 without the L2MPS term", wrap(exp.PowerAblation)},
	{"baselines", "Comparison: equilibrium model vs Chandra FOA/SDC", wrap(exp.BaselineComparison)},
	{"assumptions", "Study: model error under PLRU and multi-phase violations", wrap(exp.AssumptionStudy)},
	{"sensitivity", "Study: model error vs cache associativity (4–24 ways)", wrap(exp.SensitivitySweep)},
	{"complexity", "Study: O(k) profiling vs 2^k−1 co-run measurements", wrap(exp.ComplexityStudy)},
	{"hetero", "Study: heterogeneous-core prediction (contribution 4)", wrap(exp.HeteroStudy)},
	{"stability", "Study: spread of validation error across seeds", wrap(exp.SeedStability)},
	{"bandwidth", "Study: model error under memory-bandwidth saturation", wrap(exp.BandwidthStudy)},
	{"threads", "Study: thread-group placement — co-locate vs spread vs oblivious across sharing fractions", wrap(exp.ThreadsStudy)},
	{"powercap", "Study: power-capped placement — budget sweep over least-degradation vs least-energy vs cap-aware", wrap(exp.PowerCapStudy)},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it returns the exit code, 2 for a request that
// cannot be served as asked (bad flag, unknown experiment id) and 1 for a
// failed experiment. The experiments take no context: ^C ends the
// process, and the context parameter only gives run the shape of the other
// commands.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("experiments", flag.ContinueOnError)
	flags.SetOutput(stderr)
	quick := flags.Bool("quick", false, "short run durations (smoke-test quality)")
	seed := flags.Uint64("seed", 42, "experiment seed")
	workers := flags.Int("workers", 0, "concurrent runs per driver (0 = GOMAXPROCS); output is identical at any value")
	list := flags.Bool("list", false, "list experiment ids and exit")
	csvPrefix := flags.String("figure2csv", "", "write figure2 traces to <prefix>-max.csv and <prefix>-min.csv")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments {
			fmt.Fprintf(stdout, "%-10s %s\n", e.id, e.desc)
		}
		return 0
	}

	want := flags.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, e := range experiments {
			want = append(want, e.id)
		}
	}
	byID := map[string]experiment{}
	for _, e := range experiments {
		byID[e.id] = e
	}
	for _, id := range want {
		if _, ok := byID[strings.ToLower(id)]; !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", id)
			return 2
		}
	}

	x := exp.NewContext(exp.Config{Quick: *quick, Seed: *seed, Workers: *workers})
	start := time.Now()
	for _, id := range want {
		e := byID[strings.ToLower(id)]
		fmt.Fprintf(stdout, "== %s — %s ==\n", e.id, e.desc)
		t0 := time.Now()
		r, err := e.run(x)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.id, err)
			return 1
		}
		fmt.Fprintln(stdout, r.Format())
		if f2, ok := r.(*exp.Figure2Result); ok && *csvPrefix != "" {
			if err := writeFigure2CSV(*csvPrefix, f2); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "traces written to %s-max.csv and %s-min.csv\n", *csvPrefix, *csvPrefix)
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", e.id, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "suite complete in %v\n", time.Since(start).Round(time.Second))
	return 0
}

// writeFigure2CSV dumps both traces as time,estimated,measured rows for
// external plotting.
func writeFigure2CSV(prefix string, r *exp.Figure2Result) error {
	dump := func(path string, tr [2]power.Trace) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, "time_s,estimated_w,measured_w")
		for i := range tr[0] {
			fmt.Fprintf(w, "%.3f,%.4f,%.4f\n", tr[0][i].Time, tr[0][i].Power, tr[1][i].Power)
		}
		return w.Flush()
	}
	if err := dump(prefix+"-max.csv", r.MaxTrace); err != nil {
		return err
	}
	return dump(prefix+"-min.csv", r.MinTrace)
}
