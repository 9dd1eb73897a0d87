package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
	"mpmc/internal/xrand"
)

// ScenarioMachine is one machine entry in a scenario file.
type ScenarioMachine struct {
	// Name is the node identity (default "m<index>").
	Name string `json:"name,omitempty"`
	// Preset picks the modeled CMP: server, workstation, or laptop.
	Preset string `json:"preset"`
	// MaxPerCore bounds time-sharing depth (0 = unbounded).
	MaxPerCore int `json:"max_per_core,omitempty"`
}

// Scenario describes one fleet simulation: the machines, the arrival
// process, and the policies to compare. Everything is derived from Seed,
// so a scenario replays identically on every run and at every worker
// count.
type Scenario struct {
	Seed     uint64            `json:"seed"`
	Machines []ScenarioMachine `json:"machines"`
	// Policies lists the policies to replay the trace under (default: all
	// four, in Policies() order).
	Policies []string `json:"policies,omitempty"`
	// Processes is the trace length.
	Processes int `json:"processes"`
	// Workloads restricts the benchmark pool (default: the full suite).
	Workloads []string `json:"workloads,omitempty"`
	// MeanInterarrival and MeanLifetime parameterize the exponential
	// arrival and residence times (simulated seconds).
	MeanInterarrival float64 `json:"mean_interarrival"`
	MeanLifetime     float64 `json:"mean_lifetime"`
	// QueueCap bounds the admission queue (0 = no queue: arrivals that do
	// not fit are rejected outright).
	QueueCap int `json:"queue_cap,omitempty"`
	// BinPackCeiling overrides BinPack's degradation ceiling (0 = 0.25).
	BinPackCeiling float64 `json:"binpack_ceiling,omitempty"`
	// RebalanceEvery inserts a fleet Rebalance pass with this period
	// (simulated seconds; 0 = never).
	RebalanceEvery float64 `json:"rebalance_every,omitempty"`
	// RebalanceMinImprovement is the Rebalance threshold (total SPI).
	RebalanceMinImprovement float64 `json:"rebalance_min_improvement,omitempty"`
	// ThreadGroups, when set, makes arrivals thread GROUPS: each process
	// draws a member count and sharing fraction (after its legacy draws,
	// so scenarios without this block replay byte-identically). Groups
	// with one member take the exact legacy arrival path.
	ThreadGroups *ThreadGroupConfig `json:"thread_groups,omitempty"`
	// PowerCap, when positive, caps the fleet's watt budget from t=0:
	// arrivals that would bust it queue or reject, and every cap change
	// runs an enforcement pass. CapEvents re-set the budget mid-run
	// (watts 0 = uncap). Scenarios without either replay byte-identically
	// to pre-DVFS output.
	PowerCap  float64    `json:"power_cap,omitempty"`
	CapEvents []CapEvent `json:"cap_events,omitempty"`
}

// CapEvent is one scheduled power-budget change in a scenario.
type CapEvent struct {
	Time  float64 `json:"time"`
	Watts float64 `json:"watts"`
}

// ThreadGroupConfig parameterizes thread-group arrivals in a scenario.
type ThreadGroupConfig struct {
	// MaxThreads bounds the per-process member count: T is drawn
	// uniformly from 1..MaxThreads.
	MaxThreads int `json:"max_threads"`
	// SharedFracs is the pool of sharing fractions σ; each group draws
	// one uniformly.
	SharedFracs []float64 `json:"shared_fracs"`
	// WriteFrac is ω, the write intensity on shared data (one value for
	// the whole scenario).
	WriteFrac float64 `json:"write_frac"`
}

// LoadScenario reads and validates a scenario file. Unknown fields are
// rejected so typos fail loudly instead of silently changing the run.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading scenario: %w", err)
	}
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("fleet: parsing scenario %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: scenario %s: %w", path, err)
	}
	return &sc, nil
}

// Validate checks the scenario for structural errors.
func (sc *Scenario) Validate() error {
	if len(sc.Machines) == 0 {
		return errors.New("no machines")
	}
	for i, m := range sc.Machines {
		if _, err := cli.MachineByName(m.Preset); err != nil {
			return fmt.Errorf("machine %d: %w", i, err)
		}
		if m.MaxPerCore < 0 {
			return fmt.Errorf("machine %d: negative max_per_core", i)
		}
	}
	if sc.Processes <= 0 {
		return errors.New("processes must be positive")
	}
	if sc.MeanInterarrival <= 0 || sc.MeanLifetime <= 0 {
		return errors.New("mean_interarrival and mean_lifetime must be positive")
	}
	for _, p := range sc.PolicyNames() {
		if _, err := ParsePolicy(p); err != nil {
			return err
		}
	}
	for _, w := range sc.workloadNames() {
		if workload.ByName(w) == nil {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	if sc.RebalanceEvery < 0 {
		return errors.New("negative rebalance_every")
	}
	if sc.PowerCap < 0 {
		return errors.New("negative power_cap")
	}
	for i, ce := range sc.CapEvents {
		if ce.Time < 0 {
			return fmt.Errorf("cap_events[%d]: negative time", i)
		}
		if ce.Watts < 0 {
			return fmt.Errorf("cap_events[%d]: negative watts", i)
		}
	}
	if tg := sc.ThreadGroups; tg != nil {
		if tg.MaxThreads < 1 {
			return fmt.Errorf("thread_groups: max_threads %d < 1", tg.MaxThreads)
		}
		if len(tg.SharedFracs) == 0 {
			return errors.New("thread_groups: empty shared_fracs")
		}
		// Full group validation (σ, ω ranges; MaxThreads·L2RPI ≤ 1 for
		// every pool workload) so a bad scenario fails at load, not at
		// the first wide group's arrival.
		for _, w := range sc.workloadNames() {
			for _, frac := range tg.SharedFracs {
				g := threads.GroupSpec{
					Base: workload.ByName(w), Threads: tg.MaxThreads,
					SharedFrac: frac, WriteFrac: tg.WriteFrac,
				}
				if err := g.Validate(); err != nil {
					return fmt.Errorf("thread_groups: %w", err)
				}
			}
		}
	}
	return nil
}

// PolicyNames returns the policies the scenario replays under, in order
// (default: all four, in Policies() order).
func (sc *Scenario) PolicyNames() []string {
	if len(sc.Policies) > 0 {
		return sc.Policies
	}
	var out []string
	for _, p := range Policies() {
		out = append(out, p.String())
	}
	return out
}

func (sc *Scenario) workloadNames() []string {
	if len(sc.Workloads) > 0 {
		return sc.Workloads
	}
	var out []string
	for _, s := range workload.Suite() {
		out = append(out, s.Name)
	}
	return out
}

// Pool returns the benchmarks arrivals draw from.
func (sc *Scenario) Pool() []*workload.Spec {
	names := sc.workloadNames()
	pool := make([]*workload.Spec, len(names))
	for i, name := range names {
		pool[i] = workload.ByName(name)
	}
	return pool
}

// NodeNames returns each machine's node identity, in scenario order
// ("m<index>" where the scenario names none, as the fleet does).
func (sc *Scenario) NodeNames() []string {
	names := make([]string, len(sc.Machines))
	for i, m := range sc.Machines {
		names[i] = m.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("m%d", i)
		}
	}
	return names
}

// TraceProc is one simulated process: what it runs and when it arrives
// and departs. Threads and SharedFrac describe its thread group when the
// scenario enables them (Threads is 1 — a legacy process — otherwise).
type TraceProc struct {
	ID             int
	Spec           *workload.Spec
	Arrive, Depart float64
	Threads        int
	SharedFrac     float64
}

// expSample draws from Exp(mean) — xrand has no exponential sampler, so
// invert the CDF (1-Float64 keeps the argument of Log away from zero).
func expSample(r *xrand.Rand, mean float64) float64 {
	return -mean * math.Log(1-float64(r.Float64()))
}

// Trace derives the arrival trace from the scenario seed: cumulative
// exponential interarrivals, exponential lifetimes, workloads drawn
// uniformly from the pool. The trace is generated once and shared by every
// policy (and, in the chaos harness, every replay), so runs are compared
// on identical demand.
func (sc *Scenario) Trace() []TraceProc {
	pool := sc.Pool()
	r := xrand.New(sc.Seed)
	t := 0.0
	procs := make([]TraceProc, sc.Processes)
	for i := range procs {
		t += expSample(r, sc.MeanInterarrival)
		life := expSample(r, sc.MeanLifetime)
		procs[i] = TraceProc{
			ID:      i,
			Spec:    pool[r.Intn(len(pool))],
			Arrive:  t,
			Depart:  t + life,
			Threads: 1,
		}
		// Group draws come AFTER every legacy draw of this process, so a
		// scenario without thread_groups consumes the random stream
		// exactly as before and stays byte-identical.
		if tg := sc.ThreadGroups; tg != nil {
			procs[i].Threads = 1 + r.Intn(tg.MaxThreads)
			procs[i].SharedFrac = tg.SharedFracs[r.Intn(len(tg.SharedFracs))]
		}
	}
	return procs
}

// Horizon is the trace's last departure: the end of the simulated run.
func Horizon(trace []TraceProc) float64 {
	h := 0.0
	for _, p := range trace {
		h = max(h, p.Depart)
	}
	return h
}

// Event kinds, in their same-timestamp processing order: departures free
// capacity before rebalancing considers the layout, and both run before
// arrivals claim slots; cap changes apply last, so a budget that tightens
// at t constrains the state arrivals at t produced.
const (
	evDepart = iota
	evRebalance
	evArrive
	evCap
)

// Event is one scheduled replay operation. Kind is the caller's (numbered
// in same-timestamp processing order), Seq breaks ties within a (Time,
// Kind), and Proc indexes what the kind acts on: a trace process, a cap
// event, a machine.
type Event struct {
	Time            float64
	Kind, Seq, Proc int
}

// SortEvents puts events in processing order: by time, then kind, then
// Seq; equal keys keep their order.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Seq < b.Seq
	})
}

// Sim replays one scenario under each requested policy on a virtual
// clock. Nothing reads wall time, so a run is a pure function of the
// scenario — byte-identical across runs and worker counts.
type Sim struct {
	sc      *Scenario
	workers int

	// ScoreCacheCap overrides Config.ScoreCacheCap for every replayed
	// fleet (0 = the fleet default, negative = cold solving). Like
	// workers it affects speed, never output — the differential suite
	// replays scenarios at both settings and asserts byte equality.
	ScoreCacheCap int
}

// NewSim builds a simulator. workers caps scoring concurrency (0 =
// GOMAXPROCS); it affects speed, never output.
func NewSim(sc *Scenario, workers int) *Sim {
	return &Sim{sc: sc, workers: workers}
}

// Scenario returns the scenario the simulator replays.
func (s *Sim) Scenario() *Scenario { return s.sc }

// PolicyReport is one policy's outcome on the shared trace.
type PolicyReport struct {
	Policy string `json:"policy"`
	// Placed counts every admission (direct and from the queue); Rejected
	// counts arrivals that found no admissible machine; QueueAdmitted,
	// QueueAbandoned and QueueRejected break down the queue's fate.
	Placed         uint64 `json:"placed"`
	Rejected       uint64 `json:"rejected"`
	QueueAdmitted  uint64 `json:"queue_admitted"`
	QueueAbandoned uint64 `json:"queue_abandoned"`
	QueueRejected  uint64 `json:"queue_rejected"`
	Moves          uint64 `json:"moves"`
	ProfileRuns    uint64 `json:"profile_runs"`
	// Thread-group ledger (present only when the scenario places groups,
	// so legacy reports and their goldens are byte-identical): groups
	// admitted/rejected whole, and the member ledger, which conserves as
	// members spawned = placed + faulted.
	GroupsPlaced   uint64 `json:"groups_placed,omitempty"`
	GroupsRejected uint64 `json:"groups_rejected,omitempty"`
	MembersPlaced  uint64 `json:"members_placed,omitempty"`
	MembersFaulted uint64 `json:"members_faulted,omitempty"`
	// AvgSPI and AvgWatts are time-weighted fleet-wide averages over the
	// simulated horizon (first arrival to last departure).
	AvgSPI   float64 `json:"avg_spi"`
	AvgWatts float64 `json:"avg_watts"`
	// FinalResidents should be zero: every trace process departs.
	FinalResidents int `json:"final_residents"`
	// Power-cap ledger (present only when the scenario engages a cap, so
	// legacy reports and their goldens are byte-identical): EnergyJ is the
	// time-weighted watt integral over the horizon (joules of simulated
	// energy), CapDownclocks/CapMigrations count enforcement actions, and
	// CapUnsatisfied counts enforcement passes that could not fit the
	// budget even at every ladder floor.
	EnergyJ        float64 `json:"energy_j,omitempty"`
	CapDownclocks  uint64  `json:"cap_downclocks,omitempty"`
	CapMigrations  uint64  `json:"cap_migrations,omitempty"`
	CapUnsatisfied uint64  `json:"cap_unsatisfied,omitempty"`
}

// Report is the simulation outcome: the scenario identity plus one entry
// per policy, in request order.
type Report struct {
	Seed      uint64         `json:"seed"`
	Machines  []string       `json:"machines"`
	Processes int            `json:"processes"`
	Horizon   float64        `json:"horizon"`
	Policies  []PolicyReport `json:"policies"`
}

// Run replays the trace under every requested policy.
func (s *Sim) Run(ctx context.Context) (*Report, error) {
	trace := s.sc.Trace()
	horizon := Horizon(trace)
	rep := &Report{
		Seed:      s.sc.Seed,
		Processes: s.sc.Processes,
		Horizon:   horizon,
	}
	for i, name := range s.sc.NodeNames() {
		rep.Machines = append(rep.Machines, name+":"+s.sc.Machines[i].Preset)
	}
	for _, pname := range s.sc.PolicyNames() {
		pr, err := s.runPolicy(ctx, pname, trace, horizon)
		if err != nil {
			return nil, fmt.Errorf("fleet: sim policy %s: %w", pname, err)
		}
		rep.Policies = append(rep.Policies, pr)
	}
	return rep, nil
}

func (s *Sim) runPolicy(ctx context.Context, pname string, trace []TraceProc, horizon float64) (PolicyReport, error) {
	r, err := s.NewReplay(pname, len(trace), nil)
	if err != nil {
		return PolicyReport{}, err
	}
	var events []Event
	for _, p := range trace {
		events = append(events,
			Event{Time: p.Arrive, Kind: evArrive, Seq: p.ID, Proc: p.ID},
			Event{Time: p.Depart, Kind: evDepart, Seq: p.ID, Proc: p.ID},
		)
	}
	if s.sc.RebalanceEvery > 0 {
		for k, t := 1, s.sc.RebalanceEvery; t < horizon; k, t = k+1, float64(k+1)*s.sc.RebalanceEvery {
			events = append(events, Event{Time: t, Kind: evRebalance, Seq: k})
		}
	}
	for k := range s.sc.CapEvents {
		events = append(events, Event{Time: s.sc.CapEvents[k].Time, Kind: evCap, Seq: k, Proc: k})
	}
	SortEvents(events)

	for _, ev := range events {
		if err := r.Advance(ctx, ev.Time); err != nil {
			return PolicyReport{}, err
		}
		switch ev.Kind {
		case evArrive:
			_, err = r.Arrive(ctx, trace[ev.Proc], 0)
		case evDepart:
			_, err = r.Depart(ctx, ev.Proc)
		case evCap:
			err = r.SetCap(ctx, s.sc.CapEvents[ev.Proc].Watts)
		case evRebalance:
			err = r.Rebalance(ctx, s.sc.RebalanceMinImprovement)
		}
		if err != nil {
			return PolicyReport{}, err
		}
	}
	return r.Report(ctx, horizon)
}

// Replay is one policy's replay of a traced scenario: the policy's fleet,
// where each traced process lives, and the time integrals of the fleet
// totals. Sim.Run drives one per policy through the scenario's events;
// the chaos harness drives one through its fault schedule. Operations are
// serial: a Replay must not be used from two goroutines at once.
type Replay struct {
	policy string
	sc     *Scenario
	f      *Fleet
	procs  []procState

	// Time-weighted integrals of the fleet totals: between consecutive
	// operations the fleet is static, so each interval contributes
	// totals × dt. Advance charges the current state for the elapsed
	// interval, so it must run before the state changes.
	prevT, spiSec, wattSec float64

	capDownclocks, capMigrations, capUnsatisfied uint64
	capSatisfied                                 bool
}

// procState is where one traced process lives: its resident instances
// (one for a single process, every member of a thread group) and its
// queue tickets (a queued single, or group members a preemption evicted
// and requeued).
type procState struct {
	members []Placed
	tickets []int
}

// NewReplay builds the fleet for one policy — the scenario's machine
// presets, the analytic truth oracle in place of profiling sweeps, and one
// shared synthetic power model, so everything is deterministic and
// instant — and a replay that tracks procs traced processes (IDs 0 to
// procs-1). intercept, when non-nil, is the fleet's fault seam.
func (s *Sim) NewReplay(pname string, procs int, intercept func(site, key string) error) (*Replay, error) {
	policy, err := ParsePolicy(pname)
	if err != nil {
		return nil, err
	}
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return nil, err
	}
	var nodes []NodeConfig
	for _, m := range s.sc.Machines {
		preset, err := cli.MachineByName(m.Preset)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, NodeConfig{
			Name:       m.Name,
			Machine:    preset,
			Power:      pm,
			MaxPerCore: m.MaxPerCore,
		})
	}
	f, err := New(Config{
		Nodes:          nodes,
		Policy:         policy,
		BinPackCeiling: s.sc.BinPackCeiling,
		QueueCap:       s.sc.QueueCap,
		PowerCap:       s.sc.PowerCap,
		Seed:           s.sc.Seed,
		Workers:        s.workers,
		ScoreCacheCap:  s.ScoreCacheCap,
		Intercept:      intercept,
		Profile: func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Replay{policy: pname, sc: s.sc, f: f, procs: make([]procState, procs), capSatisfied: true}, nil
}

// Fleet returns the replayed fleet.
func (r *Replay) Fleet() *Fleet { return r.f }

// Advance charges the fleet's current totals for the time since the last
// call; a time at or before it charges nothing.
func (r *Replay) Advance(ctx context.Context, now float64) error {
	if now <= r.prevT {
		return nil
	}
	spi, watts, err := r.f.Totals(ctx)
	if err != nil {
		return err
	}
	r.spiSec += float64(spi * (now - r.prevT))
	r.wattSec += float64(watts * (now - r.prevT))
	r.prevT = now
	return nil
}

// Arrive admits traced process p at a priority class. A thread group
// (Threads > 1) places as one transaction and never queues; a single that
// does not fit is submitted to the queue under its trace ID and class.
// It reports whether the process (for a group, every member) is resident;
// a process that did not fit is queued or rejected, and the fleet counts
// which. Any other failure is returned, and the process lives nowhere.
func (r *Replay) Arrive(ctx context.Context, p TraceProc, priority int) (bool, error) {
	if p.Threads > 1 {
		placed, err := r.f.PlaceGroup(ctx, threads.GroupSpec{
			Base: p.Spec, Threads: p.Threads,
			SharedFrac: p.SharedFrac, WriteFrac: r.sc.ThreadGroups.WriteFrac,
		})
		if err == nil {
			r.procs[p.ID] = procState{members: placed}
			return true, nil
		}
		if errors.Is(err, ErrFleetFull) {
			err = nil
		}
		return false, err
	}
	placed, err := r.f.PlaceWith(ctx, p.Spec, PlaceOptions{Tag: strconv.Itoa(p.ID), Priority: priority})
	switch {
	case err == nil:
		r.procs[p.ID] = procState{members: []Placed{placed}}
		return true, r.noteVictim(placed.Preempted)
	case errors.Is(err, ErrFleetFull):
		r.Submit(p, priority)
		return false, nil
	}
	return false, err
}

// Submit queues traced process p at a priority class under its trace ID,
// without trying to place it first. A full queue rejects it (the fleet
// counts the rejection; that is the only way SubmitWith fails).
func (r *Replay) Submit(p TraceProc, priority int) {
	if ticket, err := r.f.SubmitWith(p.Spec, strconv.Itoa(p.ID), priority); err == nil {
		r.procs[p.ID] = procState{tickets: []int{ticket}}
	}
}

// Depart ends traced process id wherever it lives: its queue entries are
// withdrawn, and its resident instances are removed in placement order,
// each freed slot pumping queued arrivals in. It reports whether any
// instance was removed — that is, whether the queue was pumped.
func (r *Replay) Depart(ctx context.Context, id int) (bool, error) {
	st := r.procs[id]
	r.procs[id] = procState{}
	for _, t := range st.tickets {
		r.f.CancelQueued(t)
	}
	for _, m := range st.members {
		admitted, err := r.f.Remove(ctx, m.Node, m.Name)
		if err != nil {
			return false, err
		}
		if err := r.admit(admitted); err != nil {
			return false, err
		}
	}
	return len(st.members) > 0, nil
}

// Rebalance runs one rebalancing pass. A pass that finds no move worth
// minImprovement is not an error.
func (r *Replay) Rebalance(ctx context.Context, minImprovement float64) error {
	mv, err := r.f.Rebalance(ctx, minImprovement)
	switch {
	case err == nil:
		r.moved(mv)
	case !errors.Is(err, manager.ErrNoImprovement):
		return err
	}
	return nil
}

// SetCap sets the fleet's watt budget (0 = uncapped) and runs one
// enforcement pass, down-clocking or migrating residents until the fleet
// fits.
func (r *Replay) SetCap(ctx context.Context, watts float64) error {
	if err := r.f.SetPowerCap(ctx, watts); err != nil {
		return err
	}
	return r.enforce(ctx)
}

// CapSatisfied reports whether the last enforcement pass fit the fleet
// under its budget (true before any pass). While it is false the idle
// floor alone exceeds the cap.
func (r *Replay) CapSatisfied() bool { return r.capSatisfied }

// FailNode takes the named machine down; its residents die with it. It
// returns how many traced instances were killed.
func (r *Replay) FailNode(name string) (int, error) {
	evicted, err := r.f.FailNode(name)
	if err != nil {
		return 0, err
	}
	dead := make(map[string]bool, len(evicted))
	for _, e := range evicted {
		dead[e.Name] = true
	}
	killed := 0
	for i := range r.procs {
		live := r.procs[i].members[:0]
		for _, m := range r.procs[i].members {
			if m.Node == name && dead[m.Name] {
				killed++
			} else {
				live = append(live, m)
			}
		}
		r.procs[i].members = live
	}
	return killed, nil
}

// RestoreNode brings the named machine back, empty, and pumps the queue
// into it. A restored machine adds its idle draw without passing the
// admission gate, so under an engaged budget an enforcement pass follows.
func (r *Replay) RestoreNode(ctx context.Context, name string) error {
	admitted, err := r.f.RestoreNode(ctx, name)
	if err != nil {
		return err
	}
	if err := r.admit(admitted); err != nil {
		return err
	}
	if r.f.PowerCap() > 0 {
		return r.enforce(ctx)
	}
	return nil
}

// Report closes the integrals at horizon and reads the policy's outcome
// off the fleet's counters.
func (r *Replay) Report(ctx context.Context, horizon float64) (PolicyReport, error) {
	if err := r.Advance(ctx, horizon); err != nil {
		return PolicyReport{}, err
	}
	reg := r.f.Registry()
	pr := PolicyReport{
		Policy:         r.policy,
		Placed:         reg.CounterValue("fleet_place_total"),
		Rejected:       reg.CounterValue("fleet_place_rejected_total"),
		QueueAdmitted:  reg.CounterValue("fleet_queue_admitted_total"),
		QueueAbandoned: reg.CounterValue("fleet_queue_abandoned_total"),
		QueueRejected:  reg.CounterValue("fleet_queue_rejected_total"),
		Moves:          reg.CounterValue("fleet_rebalance_moves_total"),
		ProfileRuns:    reg.CounterValue("fleet_profile_runs_total"),
		GroupsPlaced:   reg.CounterValue("fleet_groups_placed_total"),
		GroupsRejected: reg.CounterValue("fleet_groups_rejected_total"),
		MembersPlaced:  reg.CounterValue("fleet_group_placed_members_total"),
		MembersFaulted: reg.CounterValue("fleet_group_faulted_members_total"),
		AvgSPI:         r.spiSec / horizon,
		AvgWatts:       r.wattSec / horizon,
		CapDownclocks:  r.capDownclocks,
		CapMigrations:  r.capMigrations,
		CapUnsatisfied: r.capUnsatisfied,
	}
	for _, st := range r.procs {
		if len(st.members) > 0 || len(st.tickets) > 0 {
			pr.FinalResidents++
		}
	}
	if r.sc.PowerCap > 0 || len(r.sc.CapEvents) > 0 {
		// Only a capped scenario reports its energy, so legacy report
		// goldens keep their exact bytes. (The enforcement tallies are
		// zero unless some pass ran.)
		pr.EnergyJ = r.wattSec
	}
	return pr, nil
}

// enforce runs one cap-enforcement pass and tallies its actions.
func (r *Replay) enforce(ctx context.Context) error {
	rep, err := r.f.EnforceCap(ctx)
	if err != nil {
		return err
	}
	r.capDownclocks += uint64(rep.Downclocks)
	r.capMigrations += uint64(rep.Migrations)
	if !rep.Satisfied {
		r.capUnsatisfied++
	}
	r.capSatisfied = rep.Satisfied
	for _, mv := range rep.Moves {
		r.moved(mv)
	}
	return nil
}

// moved re-points the instance a migration renamed on its new node.
func (r *Replay) moved(mv Move) {
	if i, j := r.member(mv.From, mv.Name); i >= 0 {
		r.procs[i].members[j].Node, r.procs[i].members[j].Name = mv.To, mv.NewName
	}
}

// member locates the resident instance name on node: the traced process
// holding it and its index among that process's members, or -1, -1.
func (r *Replay) member(node, name string) (int, int) {
	for i := range r.procs {
		for j, m := range r.procs[i].members {
			if m.Node == node && m.Name == name {
				return i, j
			}
		}
	}
	return -1, -1
}

// admit records queue admissions with the traced process that holds the
// ticket. A pumped high-priority entry may itself preempt: its victim
// changes state in the same breath.
func (r *Replay) admit(placed []Placed) error {
	for _, p := range placed {
		if err := r.noteVictim(p.Preempted); err != nil {
			return err
		}
		id := r.ticketOwner(p.Ticket)
		if id < 0 {
			return fmt.Errorf("queue admission %s/%s: ticket %d belongs to no traced process", p.Node, p.Name, p.Ticket)
		}
		r.procs[id].members = append(r.procs[id].members, p)
	}
	return nil
}

// noteVictim re-points a preemption victim's process at the victim's new
// life: back in the queue under a fresh ticket, or gone (the fleet counts
// the drop). The victim may be one member of a thread group; the group's
// other members stay resident.
func (r *Replay) noteVictim(pi *PreemptedInfo) error {
	if pi == nil {
		return nil
	}
	i, j := r.member(pi.Node, pi.Name)
	if i < 0 {
		return fmt.Errorf("preemption victim %s/%s belongs to no traced process", pi.Node, pi.Name)
	}
	r.procs[i].members = slices.Delete(r.procs[i].members, j, j+1)
	if pi.Requeued {
		r.procs[i].tickets = append(r.procs[i].tickets, pi.Ticket)
	}
	return nil
}

// ticketOwner removes queue ticket t from the traced process holding it
// and returns that process's ID, or -1 when no process holds it.
func (r *Replay) ticketOwner(t int) int {
	for i := range r.procs {
		if j := slices.Index(r.procs[i].tickets, t); j >= 0 {
			r.procs[i].tickets = slices.Delete(r.procs[i].tickets, j, j+1)
			return i
		}
	}
	return -1
}
