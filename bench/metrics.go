package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one reported number. BENCHMARK.json at the repository
// root lists the same names and units (bench_test.go keeps them in step).
type metricDef struct{ Name, Unit string }

// endToEnd are the numbers a user of the system would see; every workload
// reports every one of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"cpu_us_per_op", "cpu-us"},
	{"allocs_per_op", "count"},
	{"rss_mb", "MiB"},
}

// perLayer are the single-layer numbers of a traced run. A workload that
// does not reach a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"hist.mpa_ns", "ns"},

	{"core.solve_cold_us", "us"},
	{"core.solve_warm_us", "us"},
	{"core.solver_state_hit_frac", "fraction"},
	{"core.estimate_us", "us"},
	{"core.search_us", "us"},
	{"core.profile_ms", "ms"},
	{"core.allocs_per_solve", "count"},
	{"core.allocs_per_estimate", "count"},

	{"sim.run_ms", "ms"},
	{"sim.instr_per_s", "1/s"},
	{"sim.model_err_pct", "%"},

	{"threads.bundle_us", "us"},

	{"sched.decide_us.n24", "us"},
	{"sched.decide_us.n1000", "us"},
	{"sched.scored_per_op", "count"},

	{"manager.place_at_us", "us"},
	{"manager.remove_us", "us"},
	{"manager.snapshot_us", "us"},

	{"fleet.place_us", "us"},
	{"fleet.place_all_us", "us"},
	{"fleet.place_group_us", "us"},
	{"fleet.place_nomemo_us", "us"},
	{"fleet.remove_us", "us"},
	{"fleet.state_us", "us"},
	{"fleet.solves_per_op", "count"},
	{"fleet.score_cache_hit_frac", "fraction"},
	{"fleet.conflicts_per_kop", "count"},
	{"fleet.allocs_per_place", "count"},
	{"fleet.recover_ms", "ms"},

	{"wal.append_us", "us"},
	{"wal.bytes_per_op", "B"},
	{"wal.events_per_op", "count"},
	{"wal.open_ms", "ms"},
	{"wal.compact_ms", "ms"},

	{"server.handler_us", "us"},
	{"server.handler_self_us", "us"},
	{"server.allocs_per_req", "count"},
	{"server.request_mean_us.fleet_place", "us"},
	{"server.request_mean_us.fleet_unplace", "us"},
	{"server.request_mean_us.fleet_state", "us"},
	{"server.ticket_us", "us"},

	{"serve.http_overhead_us", "us"},
	{"serve.recover_ms", "ms"},
	{"serve.state_identical", "bool"},

	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.op_p99_us", "us"},
	{"loadgen.samples", "count"},
	{"loadgen.unplace_p50_us", "us"},
	{"loadgen.sat_ops_per_s", "ops/s"},
	{"loadgen.build_s", "s"},
	{"loadgen.trace_overhead_frac", "fraction"},
}

// values maps metric name to measurement.
type values map[string]float64

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// outcome is what a workload hands back: its counts, its measurements and
// the output checks that failed (empty = correct).
type outcome struct {
	attempted, failed int
	vals              values
	problems          []string
	digest            string // decision digest, in-process workloads
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// toReport keeps exactly the metrics of the run's kind. An end-to-end
// metric that is missing, zero or not finite is a defect of the run, so it
// is reported as a problem; layer metrics default to 0.
func (o *outcome) toReport(traced bool) report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := report{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := o.vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problemf("metric %s is not finite", d.Name)
			v = 0
		}
		if !traced && (!ok || v == 0) {
			o.problemf("end-to-end metric %s missing or zero", d.Name)
		}
		r.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if o.failed > 0 {
		o.problemf("%d of %d operations failed", o.failed, o.attempted)
	}
	if o.attempted < 1 {
		o.problemf("no operation attempted")
		r.Attempted = 1
	}
	r.Correct = len(o.problems) == 0
	return r
}

func (r report) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of bools, ints and finite floats always encodes
	}
	return string(b)
}
