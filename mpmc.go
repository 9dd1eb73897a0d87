// Package mpmc is a from-scratch reproduction of
//
//	Xi Chen, Robert P. Dick, Chi Xu, Zhuoqing Morley Mao.
//	"Performance and Power Modeling in a Multi-Programmed Multi-Core
//	Environment", DAC 2010.
//
// It provides:
//
//   - the paper's performance model: reuse-distance histograms, the
//     effective-cache-size growth recursion G(n) (Eqs. 4–5), and the
//     Newton–Raphson equilibrium solver (Eq. 7) that predicts each
//     co-running process's miss rate and throughput before the co-run
//     happens;
//   - the automated stressmark profiling of Section 3.4 that builds each
//     process's feature vector from O(A) co-runs;
//   - the MVLR power model of Eq. 9, its neural-network comparator, and
//     the time-sharing/core-set composition rules of Section 4;
//   - the combined model of Section 5 that estimates processor power for
//     any tentative process-to-core assignment from profiling data alone,
//     plus an exhaustive power-aware assignment search;
//   - the simulated hardware substrate standing in for the paper's
//     machines, SPEC CPU2000 workloads, PAPI counters, and current-clamp
//     power rig (see DESIGN.md for the substitution rationale);
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation (see EXPERIMENTS.md for paper-vs-measured).
//
// # Quick start
//
//	m := mpmc.FourCoreServer()
//	fa, _ := mpmc.Profile(m, mpmc.WorkloadByName("mcf"), mpmc.ProfileOptions{Seed: 1})
//	fb, _ := mpmc.Profile(m, mpmc.WorkloadByName("art"), mpmc.ProfileOptions{Seed: 2})
//	preds, _ := mpmc.PredictGroup([]*mpmc.FeatureVector{fa, fb}, m.Assoc, mpmc.SolverAuto)
//	// preds[i].S, preds[i].MPA, preds[i].SPI
//
// See examples/ for runnable programs and cmd/experiments for the full
// evaluation suite.
package mpmc

import (
	"context"

	"mpmc/internal/baseline"
	"mpmc/internal/core"
	"mpmc/internal/exp"
	"mpmc/internal/fleet"
	"mpmc/internal/hpc"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/phase"
	"mpmc/internal/power"
	"mpmc/internal/sim"
	"mpmc/internal/workload"
)

// Machine descriptions (the paper's three test systems).
type (
	// Machine describes a simulated CMP platform: cores, shared-cache
	// groups, cache geometry, timing, and power-oracle parameters.
	Machine = machine.Machine
)

// FourCoreServer returns the Q6600-like 4-core, 2-die reference machine.
func FourCoreServer() *Machine { return machine.FourCoreServer() }

// TwoCoreWorkstation returns the E2220-like 2-core machine.
func TwoCoreWorkstation() *Machine { return machine.TwoCoreWorkstation() }

// TwoCoreLaptop returns the Core 2 Duo-like 2-core machine with a 12-way
// shared L2.
func TwoCoreLaptop() *Machine { return machine.TwoCoreLaptop() }

// Workloads.
type (
	// Workload is a synthetic SPEC-CPU2000-like process specification.
	Workload = workload.Spec
)

// WorkloadSuite returns all ten benchmark specs.
func WorkloadSuite() []*Workload { return workload.Suite() }

// ModelSet returns the eight benchmarks used for model construction.
func ModelSet() []*Workload { return workload.ModelSet() }

// WorkloadByName looks a benchmark up by name ("gzip", "mcf", ...).
func WorkloadByName(name string) *Workload { return workload.ByName(name) }

// Stressmark returns the Section 3.4 profiling stressmark pinned to the
// given number of cache ways.
func Stressmark(ways int) *Workload { return workload.Stressmark(ways) }

// Performance model.
type (
	// FeatureVector is a profiled process characterization (Section 3.4).
	FeatureVector = core.FeatureVector
	// Prediction is the performance model's output for one process.
	Prediction = core.Prediction
	// ProfileOptions controls profiling runs.
	ProfileOptions = core.ProfileOptions
	// SolverMethod selects the equilibrium algorithm.
	SolverMethod = core.SolverMethod
)

// Equilibrium solver methods.
const (
	SolverAuto   = core.SolverAuto
	SolverNewton = core.SolverNewton
	SolverWindow = core.SolverWindow
)

// Profiling methods.
const (
	ProfileStressmark = core.ProfileStressmark
	ProfileIdeal      = core.ProfileIdeal
)

// Profile characterizes a workload on a machine using only measurable
// quantities (the paper's automated profiling). Use ProfileContext to
// bound the sweep with a deadline or cancellation.
func Profile(m *Machine, w *Workload, opts ProfileOptions) (*FeatureVector, error) {
	return core.Profile(context.Background(), m, w, opts)
}

// ProfileContext is Profile under a caller-supplied context: a cancelled
// ctx stops the sweep before the next co-run starts, bounding the work to
// at most one in-flight profiling step.
func ProfileContext(ctx context.Context, m *Machine, w *Workload, opts ProfileOptions) (*FeatureVector, error) {
	return core.Profile(ctx, m, w, opts)
}

// TruthFeature builds the analytic oracle feature vector (for ablations
// and tests; experiments profile like the paper does).
func TruthFeature(w *Workload, m *Machine) *FeatureVector { return core.TruthFeature(w, m) }

// PredictGroup predicts effective cache sizes, miss rates, and SPIs for
// processes sharing one cache (Section 3).
func PredictGroup(features []*FeatureVector, assoc int, method SolverMethod) ([]Prediction, error) {
	return core.PredictGroup(features, assoc, method)
}

// PredictGroupContext is PredictGroup under a caller-supplied context:
// the equilibrium solvers check ctx every iteration, so cancellation
// abandons the solve promptly.
func PredictGroupContext(ctx context.Context, features []*FeatureVector, assoc int, method SolverMethod) ([]Prediction, error) {
	return core.PredictGroupContext(ctx, features, assoc, method)
}

// PredictGroupOnCores is PredictGroup for heterogeneous processors:
// process i runs on a core with speed factor speeds[i] (the paper's
// contribution (4): the models "accommodate heterogeneous tasks and
// processors").
func PredictGroupOnCores(features []*FeatureVector, speeds []float64, assoc int, method SolverMethod) ([]Prediction, error) {
	return core.PredictGroupOnCores(features, speeds, assoc, method)
}

// Power model.
type (
	// PowerModel is the Eq. 9 MVLR per-core power model.
	PowerModel = core.PowerModel
	// PowerDataset is the Section 4.1 training set.
	PowerDataset = core.PowerDataset
	// PowerTrainOptions controls training-data collection.
	PowerTrainOptions = core.PowerTrainOptions
	// NNModel is the three-layer sigmoid network comparator.
	NNModel = core.NNModel
	// NNOptions controls NN training.
	NNOptions = core.NNOptions
	// Rates holds the five monitored event rates of one core.
	Rates = hpc.Rates
)

// TrainPowerModel runs the Section 4.1 pipeline on a machine.
func TrainPowerModel(m *Machine, specs []*Workload, opts PowerTrainOptions) (*PowerModel, error) {
	return core.TrainPowerModel(context.Background(), m, specs, opts)
}

// TrainPowerModelContext is TrainPowerModel under a caller-supplied
// context: cancellation stops the collection between runs.
func TrainPowerModelContext(ctx context.Context, m *Machine, specs []*Workload, opts PowerTrainOptions) (*PowerModel, error) {
	return core.TrainPowerModel(ctx, m, specs, opts)
}

// CollectPowerDataset gathers the training data without fitting.
func CollectPowerDataset(m *Machine, specs []*Workload, opts PowerTrainOptions) (*PowerDataset, error) {
	return core.CollectPowerDataset(context.Background(), m, specs, opts)
}

// CollectPowerDatasetContext is CollectPowerDataset under a
// caller-supplied context.
func CollectPowerDatasetContext(ctx context.Context, m *Machine, specs []*Workload, opts PowerTrainOptions) (*PowerDataset, error) {
	return core.CollectPowerDataset(ctx, m, specs, opts)
}

// FitPowerModel fits the MVLR model to a dataset.
func FitPowerModel(ds *PowerDataset) (*PowerModel, error) { return core.FitPowerModel(ds) }

// TrainNNModel fits the neural-network comparator to a dataset.
func TrainNNModel(ds *PowerDataset, opts NNOptions) (*NNModel, error) {
	return core.TrainNNModel(ds, opts)
}

// Combined model and assignment.
type (
	// CombinedModel estimates assignment power from profiles alone
	// (Section 5).
	CombinedModel = core.CombinedModel
	// ModelAssignment maps cores to the feature vectors time-sharing them.
	ModelAssignment = core.Assignment
	// AssignmentResult pairs a candidate assignment with its estimate.
	AssignmentResult = core.AssignmentResult
)

// NewCombinedModel wires a trained power model to a machine.
func NewCombinedModel(m *Machine, pm *PowerModel) *CombinedModel {
	return core.NewCombinedModel(m, pm)
}

// Baselines (Chandra et al., HPCA 2005).
type (
	// BaselinePrediction mirrors Prediction for the baseline models.
	BaselinePrediction = baseline.Prediction
)

// FOA is the frequency-of-access contention baseline.
func FOA(features []*FeatureVector, assoc int) ([]BaselinePrediction, error) {
	return baseline.FOA(features, assoc)
}

// SDC is the stack-distance-competition contention baseline.
func SDC(features []*FeatureVector, assoc int) ([]BaselinePrediction, error) {
	return baseline.SDC(features, assoc)
}

// Prob is the inductive-probability contention baseline.
func Prob(features []*FeatureVector, assoc int) ([]BaselinePrediction, error) {
	return baseline.Prob(features, assoc)
}

// Simulation substrate.
type (
	// SimAssignment maps cores to workload specs for a simulated run.
	SimAssignment = sim.Assignment
	// SimOptions controls one simulation run.
	SimOptions = sim.Options
	// SimResult holds a run's measurements.
	SimResult = sim.Result
	// ProcResult holds one process's measurements.
	ProcResult = sim.ProcResult
	// PowerTrace is a measured power time series.
	PowerTrace = power.Trace
)

// Run simulates an assignment on a machine: the stand-in for "run these
// benchmarks on the hardware and record PAPI + the current clamp".
func Run(m *Machine, asg SimAssignment, opts SimOptions) (*SimResult, error) {
	return sim.Run(m, asg, opts)
}

// SingleAssignment places at most one workload per core (nil = idle).
func SingleAssignment(specs ...*Workload) SimAssignment { return sim.Single(specs...) }

// Program-phase detection (Section 6.1).
type (
	// PhaseSegment is one detected program phase.
	PhaseSegment = phase.Segment
	// PhaseOptions tunes the detector.
	PhaseOptions = phase.Options
)

// DetectPhases segments a per-window metric series (e.g. windowed miss
// rates) into stable program phases.
func DetectPhases(series []float64, opts PhaseOptions) []PhaseSegment {
	return phase.Detect(series, opts)
}

// DominantPhase returns the longest detected phase.
func DominantPhase(segs []PhaseSegment) PhaseSegment { return phase.Dominant(segs) }

// Runtime placement (the paper's Section 1/5 use case): a fleet of one
// node is the single-machine run-time manager.
type (
	// Fleet places arriving processes with the paper's models at runtime.
	Fleet = fleet.Fleet
	// FleetConfig configures a Fleet.
	FleetConfig = fleet.Config
	// FleetNode describes one machine of a Fleet.
	FleetNode = fleet.NodeConfig
	// FleetPolicy selects the placement strategy.
	FleetPolicy = fleet.Policy
)

// Placement policies.
const (
	// LeastWatts places each arrival on the slot with the lowest Figure 1
	// power estimate.
	LeastWatts = fleet.LeastWatts
	// Spread is the load-balancing baseline: on one machine, the least
	// loaded core.
	Spread = fleet.Spread
)

// ErrNoImprovement is returned by Fleet.Rebalance when no move is worth
// making; test for it with errors.Is.
var ErrNoImprovement = manager.ErrNoImprovement

// NewFleet builds a run-time placement engine over the configured
// machines.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// Experiment harness.
type (
	// ExpConfig scales the experiment suite.
	ExpConfig = exp.Config
	// ExpContext memoizes profiles and power models across experiments.
	ExpContext = exp.Context
)

// NewExpContext builds an experiment context.
func NewExpContext(cfg ExpConfig) *ExpContext { return exp.NewContext(cfg) }
