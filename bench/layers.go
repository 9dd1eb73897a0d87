package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpmc/internal/chaos"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/sched"
	"mpmc/internal/sim"
	"mpmc/internal/stats"
	"mpmc/internal/threads"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// Layer measurements: each function times one layer's public calls from
// outside, on inputs taken from a workload (resident groups through
// Inspect, journal batches through Config.Journal). Latencies are medians.

// timeEach calls fn n times and returns each call's microseconds.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(s)))
	}
	return out, nil
}

// allocsPer is the mean heap allocations of one fn call.
func allocsPer(n int, fn func(i int) error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// contended lists one Eq. 10 combination (the first resident of every busy
// core) of every cache group with at least two busy cores.
type contendedGroup struct {
	feats []*core.FeatureVector
	assoc int
}

func contended(ins []fleet.NodeInspection) []contendedGroup {
	var out []contendedGroup
	for _, ni := range ins {
		asg := ni.Assignment()
		for _, group := range ni.Machine.Groups {
			var feats []*core.FeatureVector
			for _, c := range group {
				if len(asg[c]) > 0 {
					feats = append(feats, asg[c][0])
				}
			}
			if len(feats) >= 2 {
				out = append(out, contendedGroup{feats, ni.Machine.Assoc})
			}
		}
	}
	return out
}

const microSamples = 400

// histLayer times Histogram.MPA at fractional sizes over the residents'
// histograms. One call is a few nanoseconds, so calls are timed by the
// thousand.
func histLayer(ins []fleet.NodeInspection, o *outcome) {
	var feats []*core.FeatureVector
	for _, ni := range ins {
		for _, r := range ni.Residents {
			feats = append(feats, r.Feature)
		}
	}
	if len(feats) == 0 {
		return
	}
	histFeatures(feats, o)
}

var mpaSink float64

func histFeatures(feats []*core.FeatureVector, o *outcome) {
	const batch = 1000
	per := make([]float64, 0, 200)
	for b := 0; b < 200; b++ {
		s := time.Now()
		for i := 0; i < batch; i++ {
			f := feats[(b*batch+i)%len(feats)]
			mpaSink += f.Hist.MPA(0.37 + float64(i%f.Hist.MaxDistance()))
		}
		per = append(per, float64(time.Since(s).Nanoseconds())/batch)
	}
	o.vals["hist.mpa_ns"] = median(per)
}

// coreLayer times the equilibrium solve cold and warm-started, and the
// Eq. 10/11 addition estimate, on the resident groups.
func coreLayer(ctx context.Context, ins []fleet.NodeInspection, pm *core.PowerModel, o *outcome) error {
	groups := contended(ins)
	if len(groups) == 0 {
		return nil
	}
	solve := func(st *core.SolverState) func(i int) error {
		return func(i int) error {
			g := groups[i%len(groups)]
			_, err := core.PredictGroupCached(ctx, g.feats, g.assoc, core.SolverAuto, st)
			return err
		}
	}
	cold, err := timeEach(microSamples, solve(nil))
	if err != nil {
		return err
	}
	o.vals["core.solve_cold_us"] = median(cold)
	st := core.NewSolverState(0)
	if _, err = timeEach(len(groups), solve(st)); err != nil { // prime
		return err
	}
	warm, err := timeEach(microSamples, solve(st))
	if err != nil {
		return err
	}
	o.vals["core.solve_warm_us"] = median(warm)
	if o.vals["core.allocs_per_solve"], err = allocsPer(microSamples, solve(nil)); err != nil {
		return err
	}

	// Estimate the arrival of the node's first resident on every core.
	type addition struct {
		cm   *core.CombinedModel
		asg  core.Assignment
		feat *core.FeatureVector
		c    int
	}
	var adds []addition
	cms := map[*machine.Machine]*core.CombinedModel{}
	for _, ni := range ins {
		if len(ni.Residents) == 0 {
			continue
		}
		cm := cms[ni.Machine]
		if cm == nil {
			cm = core.NewCombinedModel(ni.Machine, pm)
			cms[ni.Machine] = cm
		}
		asg := ni.Assignment()
		for c := 0; c < ni.Machine.NumCores; c++ {
			adds = append(adds, addition{cm, asg, ni.Residents[0].Feature, c})
		}
	}
	estimate := func(i int) error {
		a := adds[i%len(adds)]
		_, err := a.cm.EstimateAdditionContext(ctx, a.asg, a.feat, a.c)
		return err
	}
	est, err := timeEach(microSamples, estimate)
	if err != nil {
		return err
	}
	o.vals["core.estimate_us"] = median(est)
	o.vals["core.allocs_per_estimate"], err = allocsPer(microSamples, estimate)
	return err
}

// constScore is a prioritizer that costs nothing, so Pipeline.Decide is
// timed for its filtering and selection alone.
type constScore struct{}

func (constScore) Name() string { return "const" }
func (constScore) Score(context.Context, sched.Arrival, *sched.CandidateNode) (sched.Score, error) {
	return sched.Score{OK: true, Value: 1}, nil
}

// schedLayer times Pipeline.Decide over the inspected nodes as candidates,
// with the workload's predicates and feasibility cut and a free scorer.
func schedLayer(ctx context.Context, ins []fleet.NodeInspection, preds []sched.Predicate, maxFeasible int, o *outcome) error {
	pipe, err := sched.New("bench", append([]sched.Predicate{sched.NodeUp{}}, preds...),
		[]sched.Weighted{{Prioritizer: constScore{}, Weight: 1}}, sched.MinValue{})
	if err != nil {
		return err
	}
	pipe.MaxFeasible = maxFeasible
	cands := make([]*sched.CandidateNode, len(ins))
	for i, ni := range ins {
		per := make([]int, ni.Machine.NumCores)
		for _, r := range ni.Residents {
			per[r.Core]++
		}
		free := -1
		if ni.MaxPerCore > 0 {
			free = ni.MaxPerCore*ni.Machine.NumCores - len(ni.Residents)
		}
		cands[i] = &sched.CandidateNode{
			Index: i, Name: ni.Name, Up: !ni.Down,
			PerCore: per, MaxPerCore: ni.MaxPerCore, FreeSlots: free,
		}
	}
	scored := 0
	samples, err := timeEach(microSamples, func(int) error {
		d, err := pipe.Decide(ctx, sched.Arrival{Key: "bench"}, cands, nil)
		scored += d.Scored
		return err
	})
	if err != nil {
		return err
	}
	o.vals[fmt.Sprintf("sched.decide_us.n%d", len(ins))] = median(samples)
	o.vals["sched.scored_per_op"] = float64(scored) / microSamples
	return nil
}

// truthSource hands a manager oracle feature vectors for one machine.
type truthSource struct {
	m     *machine.Machine
	feats map[string]*core.FeatureVector
}

func (s truthSource) FeatureOf(_ context.Context, spec *workload.Spec) (*core.FeatureVector, error) {
	if f, ok := s.feats[spec.Name]; ok {
		return f, nil
	}
	f := core.TruthFeature(spec, s.m)
	s.feats[spec.Name] = f
	return f, nil
}

// managerLayer rebuilds every inspected node as a stand-alone manager
// (same residents, same cores) and times the calls the fleet makes on it:
// Snapshot, PlaceAt and Remove.
func managerLayer(ctx context.Context, ins []fleet.NodeInspection, pm *core.PowerModel, o *outcome) error {
	solver := core.NewSolverState(0)
	var mgrs []*manager.Manager
	type slot struct {
		mgr  *manager.Manager
		c    int
		spec *workload.Spec
	}
	var free []slot
	for _, ni := range ins {
		mgr := manager.New(ni.Machine, pm, manager.Options{
			MaxPerCore:  ni.MaxPerCore,
			Features:    truthSource{ni.Machine, map[string]*core.FeatureVector{}},
			SolverState: solver,
		})
		per := make([]int, ni.Machine.NumCores)
		for _, r := range ni.Residents {
			if err := mgr.Adopt(ctx, r.Spec, r.Name, r.Core); err != nil {
				return err
			}
			per[r.Core]++
		}
		mgrs = append(mgrs, mgr)
		for c, n := range per {
			if len(ni.Residents) > 0 && (ni.MaxPerCore == 0 || n < ni.MaxPerCore) {
				free = append(free, slot{mgr, c, ni.Residents[0].Spec})
			}
		}
	}
	if len(free) == 0 {
		return nil
	}
	snap, err := timeEach(microSamples, func(i int) error {
		mgrs[i%len(mgrs)].Snapshot()
		return nil
	})
	if err != nil {
		return err
	}
	o.vals["manager.snapshot_us"] = median(snap)
	var placeAt, remove []float64
	for i := 0; i < microSamples; i++ {
		s := free[i%len(free)]
		t0 := time.Now()
		name, _, err := s.mgr.PlaceAt(ctx, s.spec, s.c)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := s.mgr.Remove(name); err != nil {
			return err
		}
		placeAt = append(placeAt, us(t1.Sub(t0)))
		remove = append(remove, us(time.Since(t1)))
	}
	o.vals["manager.place_at_us"] = median(placeAt)
	o.vals["manager.remove_us"] = median(remove)
	return nil
}

// threadsLayer times GroupSpec.Bundle over the group shapes the cold
// stream draws (bundles are interned, so after the first build of a shape
// this is validation, naming and a lookup).
func threadsLayer(o *outcome) error {
	suite := workload.Suite()
	var groups []threads.GroupSpec
	for _, base := range suite {
		for _, t := range groupThreads {
			for _, sigma := range groupShared {
				groups = append(groups, threads.GroupSpec{Base: base, Threads: t, SharedFrac: sigma, WriteFrac: groupWriteFrac})
			}
		}
	}
	samples, err := timeEach(microSamples, func(i int) error {
		g := groups[i%len(groups)]
		_, err := g.Bundle(g.Threads, 0)
		return err
	})
	o.vals["threads.bundle_us"] = median(samples)
	return err
}

// walLayer appends the captured journal batches to a fresh log -- the
// fill's first, off the clock, so the log knows the residents the timed
// operations remove -- and then compacts it. ops is how many operations
// produced the timed batches.
func walLayer(e *env, batches [][]wal.Event, fill, ops int, o *outcome) error {
	if len(batches) == fill {
		return nil
	}
	dir, err := e.tempDir("wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir)
	if err != nil {
		return err
	}
	defer l.Close() // the success path closes it first and checks
	for _, b := range batches[:fill] {
		if err := l.Append(b); err != nil {
			return err
		}
	}
	before, err := dirSize(dir)
	if err != nil {
		return err
	}
	timed := batches[fill:]
	events := 0
	samples, err := timeEach(len(timed), func(i int) error {
		events += len(timed[i])
		return l.Append(timed[i])
	})
	if err != nil {
		return err
	}
	after, err := dirSize(dir)
	if err != nil {
		return err
	}
	o.vals["wal.append_us"] = median(samples)
	o.vals["wal.bytes_per_op"] = float64(after-before) / float64(ops)
	o.vals["wal.events_per_op"] = float64(events) / float64(ops)
	start := time.Now()
	if err := l.Compact(); err != nil {
		return err
	}
	o.vals["wal.compact_ms"] = us(time.Since(start)) / 1e3
	return l.Close()
}

func dirSize(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkNodes runs the per-machine model invariants (Eq. 1 sums, Eq. 10
// combination counts, capacity) over inspected nodes.
func checkNodes(ctx context.Context, ins []fleet.NodeInspection) []string {
	var out []string
	var checker chaos.Checker
	for _, ni := range ins {
		for _, v := range checker.CheckNode(ctx, ni) {
			out = append(out, "invariant "+v.String())
		}
	}
	return out
}

// ---- in-process workloads' layers -----------------------------------

// fleetSimLayers measures the layers under the churning 1000-machine fleet.
func fleetSimLayers(ctx context.Context, w inproc, seed int64, o *outcome) error {
	s := w.(*fleetSim)
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return err
	}
	held := map[string]*workload.Spec{}
	for _, spec := range s.suite {
		held[spec.Name] = spec
	}
	if _, err := engineRungs(ctx, o, engineRun{
		cfg: s.cfg, seed: seed, ops: 4000, budget: s.target, single: true, metric: "fleet.place_us",
		byName: func(name string) *workload.Spec { return held[name] },
	}, false, nil, nil); err != nil {
		return err
	}
	ins := s.f.Inspect()
	if err := schedLayer(ctx, ins, s.cfg.ExtraPredicates, s.cfg.MaxFeasible, o); err != nil {
		return err
	}
	if err := managerLayer(ctx, ins, pm, o); err != nil {
		return err
	}
	if err := coreLayer(ctx, ins, pm, o); err != nil {
		return err
	}
	histLayer(ins, o)
	return nil
}

// assignSearchLayers measures what a search is made of: the per-candidate
// estimate, the solve under it, and the histogram lookups under that.
func assignSearchLayers(ctx context.Context, w inproc, seed int64, o *outcome) error {
	a := w.(*assignSearch)
	rng := rand.New(rand.NewSource(seed))
	// Spread six processes over each machine's cores as stand-in residents.
	var ins []fleet.NodeInspection
	for p, cm := range a.cms {
		ni := fleet.NodeInspection{Name: cm.Machine.Name, Machine: cm.Machine}
		for i := 0; i < 6; i++ {
			spec := workload.Suite()[rng.Intn(len(a.feats[p]))]
			ni.Residents = append(ni.Residents, manager.Resident{
				Name: fmt.Sprintf("%s#%d", spec.Name, i), Core: i % cm.Machine.NumCores,
				Spec: spec, Feature: a.feats[p][rng.Intn(len(a.feats[p]))],
			})
		}
		ins = append(ins, ni)
	}
	if err := coreLayer(ctx, ins, a.cms[0].Power, o); err != nil {
		return err
	}
	histLayer(ins, o)
	search, err := timeEach(2*len(searchDeck), func(int) error {
		_, err := a.op(ctx)
		return err
	})
	o.vals["core.search_us"] = median(search)
	return err
}

// The accuracy pairs profile and simulate at cmd/serve's -quick lengths
// (variables so that the smoke test can shorten them).
var (
	quickWarmup   = 1.5
	quickDuration = 3.0
)

const (
	accuracyPicks = 5 // benchmarks profiled; every pair of them is predicted
	// accuracySeed picks the benchmarks and seeds the profiling sweeps and
	// the simulated co-runs of the accuracy check. It is fixed, not taken
	// from --seed, so that the error is one number that can be pinned.
	accuracySeed = 1
)

// modelErrCeiling is the model's accuracy on the commit that added the
// benchmark (2.296866, rounded up): the mean absolute SPI error, in
// percent, of Eq. 6-7 on profiled features against the simulated co-run,
// over the accuracy check's twenty processes. The error is deterministic,
// and profile_sweep fails its output check when it is above the ceiling, so
// a profiler or simulator made faster by being wrong does not pass. (A
// variable so that the smoke test, which profiles at other lengths, can
// lift it.)
var modelErrCeiling = 2.2969

// accuracy is what the accuracy check measured.
type accuracy struct {
	profileMS []float64 // host time of each stressmark sweep
	runMS     []float64 // host time of each simulated co-run
	instrPerS []float64 // simulated instructions per host second, each co-run
	errPct    float64
}

// measureAccuracy profiles accuracyPicks benchmarks on m and, for every
// pair of them, compares the predicted SPI of both processes (Eq. 6-7 on
// the profiled features) with the simulated co-run's.
func measureAccuracy(ctx context.Context, m *machine.Machine, suite []*workload.Spec) (*accuracy, error) {
	order := rand.New(rand.NewSource(accuracySeed)).Perm(len(suite))[:accuracyPicks]
	feats := make([]*core.FeatureVector, accuracyPicks)
	profile, err := timeEach(accuracyPicks, func(i int) error {
		spec := suite[order[i]]
		var err error
		feats[i], err = core.Profile(ctx, m, spec, core.ProfileOptions{
			Warmup: quickWarmup, Duration: quickDuration, Seed: core.ProfileSeed(accuracySeed, spec.Name),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	acc := &accuracy{}
	for _, v := range profile {
		acc.profileMS = append(acc.profileMS, v/1e3)
	}
	var errPct []float64
	for i := 0; i < accuracyPicks; i++ {
		for j := i + 1; j < accuracyPicks; j++ {
			pred, err := core.PredictGroupContext(ctx, []*core.FeatureVector{feats[i], feats[j]}, m.Assoc, core.SolverAuto)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := sim.Run(m, sim.Single(suite[order[i]], suite[order[j]]), sim.Options{
				Warmup: quickWarmup, Duration: quickDuration, Seed: accuracySeed<<8 | uint64(len(acc.runMS)),
			})
			if err != nil {
				return nil, err
			}
			host := time.Since(start).Seconds()
			acc.runMS = append(acc.runMS, host*1e3)
			instr := 0.0
			for k, pr := range res.Procs {
				instr += pr.Instructions
				if spi := pr.SPI(); spi > 0 {
					errPct = append(errPct, 100*math.Abs(pred[k].SPI-spi)/spi)
				}
			}
			acc.instrPerS = append(acc.instrPerS, instr/host)
		}
	}
	acc.errPct = stats.Mean(errPct)
	return acc, nil
}

// profileSweepLayers reports what the accuracy check (profileSweep.check)
// timed: one stressmark sweep and one co-run simulation at -quick lengths.
func profileSweepLayers(_ context.Context, w inproc, _ int64, o *outcome) error {
	acc := w.(*profileSweep).acc
	if acc == nil {
		return errors.New("the accuracy check did not run")
	}
	o.vals["core.profile_ms"] = median(acc.profileMS)
	o.vals["sim.run_ms"] = median(acc.runMS)
	o.vals["sim.instr_per_s"] = median(acc.instrPerS)
	o.vals["sim.model_err_pct"] = acc.errPct
	return nil
}
