package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"mpmc/internal/chaos"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/sched"
	"mpmc/internal/workload"
)

// inproc is one in-process workload after set-up: a seeded stream of
// operations against a layer's public functions.
type inproc interface {
	// op runs the next operation and returns words describing its result,
	// which are folded into the decision digest.
	op(ctx context.Context) ([]uint64, error)
	// check runs the workload's output checks on its final state.
	check(ctx context.Context) []string
}

// inprocWorkload describes how to run one in-process workload.
type inprocWorkload struct {
	// setup constructs the system under test and fills or warms it.
	setup func(ctx context.Context, seed int64) (inproc, error)
	// roundOps is a whole number of passes through the workload's deck. A
	// timed section runs whole rounds, so whenever it ends it holds the
	// deck's mix.
	roundOps int
	// digestOps is the operation count at which the decision digest is
	// taken; every run reaches it, so runs at one seed can be compared.
	digestOps int
	// layers measures the workload's per-layer metrics on a traced run.
	layers func(ctx context.Context, w inproc, seed int64, o *outcome) error
}

var inprocWorkloads = map[string]inprocWorkload{
	"fleet_sim":     {setup: newFleetSim, roundOps: 1000, digestOps: 4000, layers: fleetSimLayers},
	"assign_search": {setup: newAssignSearch, roundOps: 20, digestOps: 40, layers: assignSearchLayers},
	"profile_sweep": {setup: newProfileSweep, roundOps: 20, digestOps: 20, layers: profileSweepLayers},
}

// selfCPU is the CPU seconds this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timed is the result of one timed section.
type timed struct {
	lats    []float64 // microseconds of every operation that succeeded
	ops     int
	failed  int
	err     error  // first failed operation
	digest  uint64 // FNV-64a over the first digestOps results
	mallocs float64
	cpu     float64 // CPU seconds
	wall    float64
}

// minOps is the fewest operations a reported timed section runs whatever
// the clock says: enough that ten samples lie beyond the 90th percentile.
const minOps = 100

// runRounds runs whole rounds of operations until the time is up and at
// least atLeast operations and the digest checkpoint are reached, timing
// every operation. With a tracer it records a span per operation.
func runRounds(ctx context.Context, w inproc, wl inprocWorkload, dur time.Duration, atLeast int, tr *tracer, spanName string) timed {
	var t timed
	h := fnv.New64a()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := selfCPU(), time.Now()
	for time.Since(start) < dur || t.ops < wl.digestOps || t.ops < atLeast {
		for i := 0; i < wl.roundOps; i++ {
			s := time.Now()
			words, err := w.op(ctx)
			e := time.Now()
			if err != nil {
				t.failed++
				if t.err == nil {
					t.err = err
				}
			} else {
				t.lats = append(t.lats, us(e.Sub(s)))
			}
			if t.ops < wl.digestOps {
				var b [8]byte
				for _, x := range words {
					for k := range b {
						b[k] = byte(x >> (8 * k))
					}
					h.Write(b[:])
				}
			}
			t.ops++
			if t.ops == wl.digestOps {
				t.digest = h.Sum64()
			}
			if tr != nil {
				parent := tr.record("op", 0, t.ops, s, e)
				tr.record(spanName, parent, t.ops, s, e)
			}
		}
	}
	t.wall = time.Since(start).Seconds()
	t.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	t.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	return t
}

// runInproc runs an in-process workload: set-up (repeated, median time),
// the timed section, the output checks, and on a traced run the layers.
func runInproc(ctx context.Context, e *env, name string, wl inprocWorkload, seed int64, seconds float64, traced bool) (*outcome, error) {
	var w inproc
	var setups []float64
	for begun := time.Now(); !setupDone(len(setups), time.Since(begun)); {
		start := time.Now()
		var err error
		if w, err = wl.setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o := &outcome{vals: values{"setup_s": median(setups)}}
	dur := time.Duration(seconds * float64(time.Second))

	var t timed
	if !traced {
		t = runRounds(ctx, w, wl, dur, minOps, nil, "")
	} else {
		// Half the time untraced, half traced: the difference in
		// throughput is what recording spans costs.
		plain := runRounds(ctx, w, wl, dur/2, minOps, nil, "")
		tr := newTracer()
		t = runRounds(ctx, w, wl, dur/2, minOps, tr, name+".op")
		if p, q := float64(plain.ops)/plain.wall, float64(t.ops)/t.wall; p > 0 {
			o.vals["loadgen.trace_overhead_frac"] = 1 - q/p
		}
		o.vals["loadgen.samples"] = float64(t.ops)
		if err := tr.write(tracePath(e, name)); err != nil {
			return nil, err
		}
		t.digest = plain.digest
		t.ops += plain.ops
		t.failed += plain.failed
		if t.err == nil {
			t.err = plain.err
		}
	}
	o.attempted, o.failed = t.ops, t.failed
	if t.err != nil {
		o.problemf("first failed operation: %v", t.err)
	}
	// Quantiles of all the section's operations together.
	asc := sorted(t.lats)
	for name, q := range map[string]float64{"op_p50_us": 0.5, "op_p90_us": 0.9} {
		if v, ok := percentile(asc, q); ok {
			o.vals[name] = v
		}
	}
	if n := float64(len(asc)); n > 0 {
		o.vals["cpu_us_per_op"] = t.cpu * 1e6 / n
		o.vals["allocs_per_op"] = t.mallocs / n
		o.vals["loadgen.sat_ops_per_s"] = n / t.wall
		o.vals["loadgen.op_p99_us"] = quantile(asc, 0.99)
	}
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.vals["rss_mb"] = hwm

	for _, p := range w.check(ctx) {
		o.problemf("%s", p)
	}
	// The same seed must give the same decisions: replay the first
	// digestOps operations on a fresh instance and compare digests.
	fresh, err := wl.setup(ctx, seed)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	if r := runRounds(ctx, fresh, wl, 0, 0, nil, ""); r.digest != t.digest {
		o.problemf("decision digest %016x differs from the replay's %016x at the same seed", t.digest, r.digest)
	}
	o.digest = fmt.Sprintf("%016x", t.digest)

	if traced {
		if err := wl.layers(ctx, w, seed, o); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	return o, nil
}

func tracePath(e *env, name string) string {
	return e.out + "/trace-" + name + ".jsonl"
}

// ---- fleet_sim ------------------------------------------------------

const simMaxFeasible = 8

// simMachines is the simulated fleet's size (a variable so that the smoke
// test can shrink it).
var simMachines = 1000

// simPresets cycle so neighbouring nodes differ in kind.
var simPresets = []func() *machine.Machine{
	machine.TwoCoreWorkstation,
	machine.FourCoreServer,
	machine.TwoCoreLaptop,
}

// truthProfile stands in for profiling, as cmd/serve -synthetic does.
func truthProfile(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
	return core.TruthFeature(spec, m), nil
}

// simConfig is the large predicated fleet: capacity predicates prune full
// nodes before any solve and at most simMaxFeasible survivors are scored.
func simConfig(machines int) (fleet.Config, int, error) {
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return fleet.Config{}, 0, err
	}
	const maxPerCore = 2
	nodes := make([]fleet.NodeConfig, machines)
	slots := 0
	for i := range nodes {
		m := simPresets[i%len(simPresets)]()
		nodes[i] = fleet.NodeConfig{Machine: m, Power: pm, MaxPerCore: maxPerCore}
		slots += maxPerCore * m.NumCores
	}
	return fleet.Config{
		Nodes:           nodes,
		Policy:          fleet.LeastDegradation,
		Seed:            1,
		Profile:         truthProfile,
		ExtraPredicates: []sched.Predicate{sched.FreeSlot{}, sched.PerCoreCap{}},
		MaxFeasible:     simMaxFeasible,
	}, slots, nil
}

// fleetSim churns a 1000-machine unsharded fleet held at 0.75 occupancy:
// every arrival first retires the oldest resident.
type fleetSim struct {
	f      *fleet.Fleet
	cfg    fleet.Config
	suite  []*workload.Spec
	bench  *deck
	fifo   []ref
	target int
}

func newFleetSim(ctx context.Context, seed int64) (inproc, error) {
	cfg, slots, err := simConfig(simMachines)
	if err != nil {
		return nil, err
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	suite := workload.Suite()
	s := &fleetSim{
		f: f, cfg: cfg, suite: suite,
		bench:  newDeck(rand.New(rand.NewSource(seed)), len(suite)),
		target: int(fleetOccupancy * float64(slots)),
	}
	for len(s.fifo) < s.target {
		if _, err := s.place(ctx); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
	}
	return s, nil
}

func (s *fleetSim) place(ctx context.Context) (fleet.Placed, error) {
	p, err := s.f.Place(ctx, s.suite[s.bench.draw()])
	if err == nil {
		s.fifo = append(s.fifo, ref{p.Node, p.Name})
	}
	return p, err
}

func (s *fleetSim) op(ctx context.Context) ([]uint64, error) {
	old := s.fifo[0]
	s.fifo = s.fifo[1:]
	if _, err := s.f.Remove(ctx, old.node, old.name); err != nil {
		return nil, err
	}
	p, err := s.place(ctx)
	if err != nil {
		return []uint64{math.MaxUint64}, err
	}
	h := fnv.New64a()
	h.Write([]byte(p.Node))
	return []uint64{h.Sum64(), uint64(p.Core)}, nil
}

func (s *fleetSim) check(ctx context.Context) []string {
	var out []string
	var checker chaos.Checker
	for _, v := range checker.CheckFleet(ctx, s.f) {
		out = append(out, "invariant "+v.String())
	}
	residents := 0
	for _, ni := range s.f.Inspect() {
		residents += len(ni.Residents)
	}
	if residents != len(s.fifo) {
		out = append(out, fmt.Sprintf("fleet holds %d residents, ledger %d", residents, len(s.fifo)))
	}
	return out
}

// ---- assign_search --------------------------------------------------

// searchCard is one (machine, process count) draw. The deck is weighted so
// that the median operation falls inside the k=5 cost cluster and the 90th
// percentile inside k=6, not on the 4x cliff between two clusters; k=0
// draws k from {4,5,6} by seed.
type searchCard struct {
	preset int
	k      int
}

var searchPresets = []func() *machine.Machine{
	machine.FourCoreServer,
	machine.FourCoreLittle,
	machine.TwoCoreWorkstation,
	machine.TwoCoreLaptop,
}

var searchDeck = []searchCard{
	{0, 4}, {0, 5}, {0, 5}, {0, 6},
	{1, 4}, {1, 5}, {1, 5}, {1, 6},
	{2, 0}, {3, 0},
}

// assignSearch is the paper's Figure 1 question with nothing around it:
// the best assignment of k profiled processes to a machine's cores.
type assignSearch struct {
	rng   *rand.Rand
	cards *deck
	bench *deck
	cms   []*core.CombinedModel
	feats [][]*core.FeatureVector // [preset][bench]
	last  core.AssignmentResult
	lastM *core.CombinedModel
}

func newAssignSearch(ctx context.Context, seed int64) (inproc, error) {
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	suite := workload.Suite()
	a := &assignSearch{rng: rng, cards: newDeck(rng, len(searchDeck)), bench: newDeck(rng, len(suite))}
	for _, preset := range searchPresets {
		m := preset()
		a.cms = append(a.cms, core.NewCombinedModel(m, pm))
		feats := make([]*core.FeatureVector, len(suite))
		for i, spec := range suite {
			feats[i] = core.TruthFeature(spec, m)
		}
		a.feats = append(a.feats, feats)
	}
	// Warm up on a throwaway copy of the stream so the timed section does
	// not pay first-touch costs.
	warm := *a
	warm.rng = rand.New(rand.NewSource(seed))
	warm.cards, warm.bench = newDeck(warm.rng, len(searchDeck)), newDeck(warm.rng, len(suite))
	for i := 0; i < len(searchDeck); i++ {
		if _, err := warm.op(ctx); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (a *assignSearch) op(ctx context.Context) ([]uint64, error) {
	card := searchDeck[a.cards.draw()]
	k := card.k
	if k == 0 {
		k = 4 + a.rng.Intn(3)
	}
	procs := make([]*core.FeatureVector, k)
	for i := range procs {
		procs[i] = a.feats[card.preset][a.bench.draw()]
	}
	cm := a.cms[card.preset]
	res, err := cm.BestAssignmentContext(ctx, procs, 1)
	if err != nil {
		return nil, err
	}
	if len(res) != 1 {
		return nil, errors.New("search returned no assignment")
	}
	a.last, a.lastM = res[0], cm
	words := []uint64{math.Float64bits(res[0].Watts)}
	for _, procs := range res[0].Assignment {
		words = append(words, uint64(len(procs)))
	}
	return words, nil
}

// check re-estimates the last winner: the search must report the power the
// model gives for the assignment it returns.
func (a *assignSearch) check(ctx context.Context) []string {
	if a.lastM == nil {
		return []string{"no search completed"}
	}
	watts, err := a.lastM.EstimateAssignmentContext(ctx, a.last.Assignment)
	if err != nil {
		return []string{"re-estimating the last winner: " + err.Error()}
	}
	if watts != a.last.Watts {
		return []string{fmt.Sprintf("last winner reported %v W, model gives %v W", a.last.Watts, watts)}
	}
	return nil
}

// ---- profile_sweep --------------------------------------------------

// The sweep profiles at a twentieth of cmd/serve's -quick lengths: the same
// code, dominated by the same cache simulation, in operations short enough
// that a run holds hundreds of them.
var (
	sweepWarmup   = 0.075
	sweepDuration = 0.15
)

var sweepMachines = []func() *machine.Machine{
	machine.TwoCoreWorkstation,
	machine.FourCoreServer,
}

// profileSweep is the paper's O(k) on-line profiling cost: one stressmark
// sweep per (benchmark, machine), every benchmark on both machines once
// per round.
type profileSweep struct {
	seed     uint64
	cards    *deck
	suite    []*workload.Spec
	machines []*machine.Machine
	drawn    int
	last     *core.FeatureVector
	acc      *accuracy // set by check
}

func newProfileSweep(ctx context.Context, seed int64) (inproc, error) {
	suite := workload.Suite()
	p := &profileSweep{
		seed:  uint64(seed),
		cards: newDeck(rand.New(rand.NewSource(seed)), len(suite)*len(sweepMachines)),
		suite: suite,
	}
	for _, m := range sweepMachines {
		p.machines = append(p.machines, m())
	}
	// One sweep per machine pages in the simulator before timing starts.
	for _, m := range p.machines {
		if _, err := p.profile(ctx, m, suite[0], 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *profileSweep) profile(ctx context.Context, m *machine.Machine, spec *workload.Spec, round uint64) (*core.FeatureVector, error) {
	return core.Profile(ctx, m, spec, core.ProfileOptions{
		Warmup:   sweepWarmup,
		Duration: sweepDuration,
		Seed:     core.ProfileSeed(p.seed+round, spec.Name),
	})
}

func (p *profileSweep) op(ctx context.Context) ([]uint64, error) {
	card := p.cards.draw()
	// Each pass through the deck simulates with fresh seeds.
	round := uint64(p.drawn / len(p.cards.cards))
	p.drawn++
	f, err := p.profile(ctx, p.machines[card%len(p.machines)], p.suite[card/len(p.machines)], round)
	if err != nil {
		return nil, err
	}
	p.last = f
	words := []uint64{math.Float64bits(f.Alpha), math.Float64bits(f.Beta)}
	for s := 0; s <= f.Hist.MaxDistance(); s++ {
		words = append(words, math.Float64bits(f.MPA(float64(s))))
	}
	return words, nil
}

// check validates the last profiled vector and the stack-distance
// property behind Eq. 6 -- MPA(S) never rises with S -- and measures the
// model's accuracy against its pinned ceiling.
func (p *profileSweep) check(ctx context.Context) []string {
	if p.last == nil {
		return []string{"no profile completed"}
	}
	if err := p.last.Validate(); err != nil {
		return []string{"last feature vector invalid: " + err.Error()}
	}
	for s := 1; s <= p.last.Hist.MaxDistance(); s++ {
		if p.last.MPA(float64(s)) > p.last.MPA(float64(s-1))+1e-12 {
			return []string{fmt.Sprintf("MPA rises from S=%d to S=%d", s-1, s)}
		}
	}
	acc, err := measureAccuracy(ctx, p.machines[0], p.suite)
	if err != nil {
		return []string{"accuracy check: " + err.Error()}
	}
	p.acc = acc
	fmt.Fprintf(os.Stderr, "profile_sweep model error %.6f %% (ceiling %.6f %%)\n", acc.errPct, modelErrCeiling)
	if acc.errPct > modelErrCeiling {
		return []string{fmt.Sprintf("model error %.6f %% of predicted against simulated SPI is above the pinned %.6f %%", acc.errPct, modelErrCeiling)}
	}
	return nil
}
