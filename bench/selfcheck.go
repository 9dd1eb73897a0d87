package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"text/tabwriter"
)

// selfcheckRuns is how many runs, each at its own seed, the acceptance
// driver takes a median and a spread from.
const selfcheckRuns = 10

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck does what the acceptance driver does, on one build: two sets
// of runs, each running every workload in turn at ten seeds, the second
// set in reverse workload order. For every end-to-end metric it prints each
// set's median and spread (interquartile distance over median) and fails
// when a spread exceeds the metric's bound -- setup_s excepted, as in the
// driver -- or the second median is worse than the first by more than the
// bound.
func selfCheck(e *env, seconds float64) int {
	if err := e.buildServe(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	// vals[set][workload][metric] = one value per run
	var vals [2]map[string]map[string][]float64
	ok := true
	for set := range vals {
		vals[set] = map[string]map[string][]float64{}
		for i := range workloadNames {
			name := workloadNames[i]
			if set == 1 {
				name = workloadNames[len(workloadNames)-1-i]
			}
			vals[set][name] = map[string][]float64{}
			for run := 1; run <= selfcheckRuns; run++ {
				rep, err := runChild(e, name, run, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, run, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: %s\n", set+1, name, run, rep.line())
				if !rep.Correct {
					ok = false
				}
				for metric, m := range rep.Metrics {
					vals[set][name][metric] = append(vals[set][name][metric], m.Value)
				}
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian 1\tspread 1\tmedian 2\tspread 2\tdrift\tbound\tverdict")
	for _, name := range workloadNames {
		for _, m := range bf.EndToEnd {
			a, b := vals[0][name][m.Name], vals[1][name][m.Name]
			sa, sb := spread(a), spread(b)
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) || worse > m.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.3f\t%.5g\t%.3f\t%+.3f\t%.2f\t%s\n", name, m.Name, ma, sa, mb, sb, worse, m.Bound, verdict)
		}
	}
	tw.Flush()
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one untraced run in a process of its own, as the driver
// does, so that memory and garbage of one run never reach the next.
func runChild(e *env, name string, seed int, seconds float64) (report, error) {
	cmd := exec.Command(os.Args[0], "-root", e.root, "-serve-bin", e.serveBin,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return report{}, err
	}
	// Told to stop, the run stops its own children before it exits; a run
	// that has already ended ignores the signal.
	e.clean.add(func() { _ = cmd.Process.Signal(syscall.SIGTERM) })
	err := cmd.Wait()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep report
	if jerr := json.Unmarshal(lines[len(lines)-1], &rep); jerr != nil {
		return report{}, fmt.Errorf("%v, no result line\n%s", err, stderr.Bytes())
	}
	if !rep.Correct {
		os.Stderr.Write(stderr.Bytes())
	}
	return rep, nil
}
