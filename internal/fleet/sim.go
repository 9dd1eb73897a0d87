package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
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
	for _, p := range sc.policies() {
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

func (sc *Scenario) policies() []string {
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
	pool := make([]*workload.Spec, 0, len(sc.workloadNames()))
	for _, name := range sc.workloadNames() {
		pool = append(pool, workload.ByName(name))
	}
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

type event struct {
	time float64
	kind int
	seq  int // tiebreak: trace order within (time, kind)
	proc int // trace index (arrive/depart)
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

	// AfterEvent, when non-nil, runs after every processed sim event
	// with the policy's live fleet — the hook the chaos invariant sweep
	// uses to check model and ledger conservation at every step. An
	// error aborts the run. It must not mutate the fleet.
	AfterEvent func(f *Fleet) error
}

// NewSim builds a simulator. workers caps scoring concurrency (0 =
// GOMAXPROCS); it affects speed, never output.
func NewSim(sc *Scenario, workers int) *Sim {
	return &Sim{sc: sc, workers: workers}
}

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
	horizon := 0.0
	for _, p := range trace {
		if p.Depart > horizon {
			horizon = p.Depart
		}
	}
	rep := &Report{
		Seed:      s.sc.Seed,
		Processes: s.sc.Processes,
		Horizon:   horizon,
	}
	for i, m := range s.sc.Machines {
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("m%d", i)
		}
		rep.Machines = append(rep.Machines, name+":"+m.Preset)
	}
	for _, pname := range s.sc.policies() {
		pr, err := s.runPolicy(ctx, pname, trace, horizon)
		if err != nil {
			return nil, fmt.Errorf("fleet: sim policy %s: %w", pname, err)
		}
		rep.Policies = append(rep.Policies, pr)
	}
	return rep, nil
}

// buildFleet assembles the simulated fleet for one policy: machine
// presets from the scenario, the analytic truth oracle in place of
// profiling sweeps, and one shared synthetic power model — everything
// deterministic and instant.
func (s *Sim) buildFleet(pname string) (*Fleet, error) {
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
	return New(Config{
		Nodes:          nodes,
		Policy:         policy,
		BinPackCeiling: s.sc.BinPackCeiling,
		QueueCap:       s.sc.QueueCap,
		PowerCap:       s.sc.PowerCap,
		Seed:           s.sc.Seed,
		Workers:        s.workers,
		ScoreCacheCap:  s.ScoreCacheCap,
		Profile: func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	})
}

// procState tracks where one trace process currently lives. A
// thread-group process (Threads > 1) records every member placement;
// single-thread processes use the legacy resident/queued fields.
type procState struct {
	resident bool
	node     string
	instance string
	queued   bool
	ticket   int
	members  []Placed
}

func (s *Sim) runPolicy(ctx context.Context, pname string, trace []TraceProc, horizon float64) (PolicyReport, error) {
	f, err := s.buildFleet(pname)
	if err != nil {
		return PolicyReport{}, err
	}

	var events []event
	for _, p := range trace {
		events = append(events,
			event{time: p.Arrive, kind: evArrive, seq: p.ID, proc: p.ID},
			event{time: p.Depart, kind: evDepart, seq: p.ID, proc: p.ID},
		)
	}
	if s.sc.RebalanceEvery > 0 {
		for k, t := 1, s.sc.RebalanceEvery; t < horizon; k, t = k+1, float64(k+1)*s.sc.RebalanceEvery {
			events = append(events, event{time: t, kind: evRebalance, seq: k})
		}
	}
	for k := range s.sc.CapEvents {
		events = append(events, event{time: s.sc.CapEvents[k].Time, kind: evCap, seq: k, proc: k})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		if events[i].kind != events[j].kind {
			return events[i].kind < events[j].kind
		}
		return events[i].seq < events[j].seq
	})

	states := make([]procState, len(trace))
	admit := func(placed []Placed) error {
		for _, p := range placed {
			if p.Tag == "" {
				continue
			}
			id, err := strconv.Atoi(p.Tag)
			if err != nil {
				return fmt.Errorf("bad queue tag %q: %w", p.Tag, err)
			}
			states[id] = procState{resident: true, node: p.Node, instance: p.Name}
		}
		return nil
	}

	// Time-weighted integrals of the fleet totals: between consecutive
	// event timestamps the fleet is static, so each interval contributes
	// totals × dt.
	prevT := 0.0
	var spiSec, wattSec float64
	var capDownclocks, capMigrations, capUnsatisfied uint64
	integrate := func(now float64) error {
		if now <= prevT {
			return nil
		}
		spi, watts, err := f.Totals(ctx)
		if err != nil {
			return err
		}
		spiSec += float64(spi * (now - prevT))
		wattSec += float64(watts * (now - prevT))
		prevT = now
		return nil
	}
	// Totals are sampled lazily: integrate(now) charges the *current*
	// state for the elapsed interval, so it must run before the state
	// changes at now.

	for _, ev := range events {
		if err := integrate(ev.time); err != nil {
			return PolicyReport{}, err
		}
		switch ev.kind {
		case evArrive:
			p := trace[ev.proc]
			if p.Threads > 1 {
				// Thread groups place as one transactional unit and
				// bypass the admission queue: a group that does not fit
				// is rejected whole (the rejection is counted).
				g := threads.GroupSpec{
					Base: p.Spec, Threads: p.Threads,
					SharedFrac: p.SharedFrac, WriteFrac: s.sc.ThreadGroups.WriteFrac,
				}
				placed, err := f.PlaceGroup(ctx, g)
				switch {
				case err == nil:
					states[ev.proc] = procState{members: placed}
				case errors.Is(err, ErrFleetFull):
				default:
					return PolicyReport{}, err
				}
				break
			}
			placed, err := f.Place(ctx, p.Spec)
			switch {
			case err == nil:
				states[ev.proc] = procState{resident: true, node: placed.Node, instance: placed.Name}
			case errors.Is(err, ErrFleetFull):
				ticket, qerr := f.Submit(p.Spec, strconv.Itoa(p.ID))
				if qerr == nil {
					states[ev.proc] = procState{queued: true, ticket: ticket}
				} else if !errors.Is(qerr, ErrQueueFull) {
					return PolicyReport{}, qerr
				}
			default:
				return PolicyReport{}, err
			}
		case evDepart:
			st := states[ev.proc]
			switch {
			case len(st.members) > 0:
				// The whole group departs: members leave in placement
				// order, and each freed slot may pump queued legacy
				// arrivals in.
				for _, m := range st.members {
					admitted, err := f.Remove(ctx, m.Node, m.Name)
					if err != nil {
						return PolicyReport{}, err
					}
					if err := admit(admitted); err != nil {
						return PolicyReport{}, err
					}
				}
				states[ev.proc] = procState{}
			case st.resident:
				admitted, err := f.Remove(ctx, st.node, st.instance)
				if err != nil {
					return PolicyReport{}, err
				}
				states[ev.proc] = procState{}
				if err := admit(admitted); err != nil {
					return PolicyReport{}, err
				}
			case st.queued:
				f.CancelQueued(st.ticket)
				states[ev.proc] = procState{}
			}
		case evCap:
			// Budget change: engage (or clear) the cap, then enforce —
			// down-clocking or migrating residents until the fleet fits.
			if err := f.SetPowerCap(ctx, s.sc.CapEvents[ev.proc].Watts); err != nil {
				return PolicyReport{}, err
			}
			crep, err := f.EnforceCap(ctx)
			if err != nil {
				return PolicyReport{}, err
			}
			capDownclocks += uint64(crep.Downclocks)
			capMigrations += uint64(crep.Migrations)
			if !crep.Satisfied {
				capUnsatisfied++
			}
			// Enforcement migrations rename residents on their new nodes;
			// keep the departure bookkeeping pointed at them (same fixup as
			// evRebalance, once per executed move).
			for _, mv := range crep.Moves {
			capfix:
				for i := range states {
					if states[i].resident && states[i].node == mv.From && states[i].instance == mv.Name {
						states[i].node, states[i].instance = mv.To, mv.NewName
						break
					}
					for j, m := range states[i].members {
						if m.Node == mv.From && m.Name == mv.Name {
							states[i].members[j].Node, states[i].members[j].Name = mv.To, mv.NewName
							break capfix
						}
					}
				}
			}
		case evRebalance:
			mv, err := f.Rebalance(ctx, s.sc.RebalanceMinImprovement)
			if err != nil && !errors.Is(err, manager.ErrNoImprovement) {
				return PolicyReport{}, err
			}
			if err == nil {
				// The migrated process got a fresh instance name on its
				// new node; keep the departure bookkeeping pointed at it.
			fixup:
				for i := range states {
					if states[i].resident && states[i].node == mv.From && states[i].instance == mv.Name {
						states[i].node, states[i].instance = mv.To, mv.NewName
						break
					}
					for j, m := range states[i].members {
						if m.Node == mv.From && m.Name == mv.Name {
							states[i].members[j].Node, states[i].members[j].Name = mv.To, mv.NewName
							break fixup
						}
					}
				}
			}
		}
		if s.AfterEvent != nil {
			if err := s.AfterEvent(f); err != nil {
				return PolicyReport{}, fmt.Errorf("after event at t=%v: %w", ev.time, err)
			}
		}
	}
	if err := integrate(horizon); err != nil {
		return PolicyReport{}, err
	}

	reg := f.Registry()
	final := 0
	for _, st := range states {
		if st.resident || st.queued {
			final++
		}
	}
	pr := PolicyReport{
		Policy:         pname,
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
		AvgSPI:         spiSec / horizon,
		AvgWatts:       wattSec / horizon,
		FinalResidents: final,
	}
	if s.sc.PowerCap > 0 || len(s.sc.CapEvents) > 0 {
		// Assigned only when the scenario engages a cap, so legacy report
		// goldens keep their exact bytes.
		pr.EnergyJ = wattSec
		pr.CapDownclocks = capDownclocks
		pr.CapMigrations = capMigrations
		pr.CapUnsatisfied = capUnsatisfied
	}
	return pr, nil
}
