package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
	"mpmc/internal/xrand"
)

// Options configures a chaos run.
type Options struct {
	// Seed drives every chaos decision. The same (scenario, Seed, Rate)
	// replays the identical fault schedule.
	Seed uint64
	// Rate is the fault intensity in [0, 1]: the probability that an
	// arrival's operation is faulted, that a node suffers an outage, and
	// the scale of the queue-pressure burst count.
	Rate float64
	// Workers caps scoring concurrency (0 = GOMAXPROCS). It affects
	// speed, never the transcript.
	Workers int
	// ColdScore disables the fleet's score memo and solver state, forcing
	// every scoring pass to solve cold. Like Workers it affects speed,
	// never the transcript: the differential suite replays chaos runs
	// cold and cached and asserts the transcripts are byte-identical.
	ColdScore bool
	// PreemptRate in (0, 1] enables the preemption fault class: the
	// schedule gains high-priority arrivals (some with a commit fault
	// armed, exercising the preemption rollback), every process is tagged
	// so victims stay tracked across eviction and requeue, and the run
	// ends with a settle phase asserting no priority inversion survives a
	// fault-free pump. 0 (the default) leaves the schedule — and every
	// pre-existing golden — untouched: the extra random stream is only
	// split off when the class is enabled.
	PreemptRate float64
	// CapRate in (0, 1] enables the cap-flip fault class: the schedule
	// gains power-budget flips that alternately engage a tight fleet-wide
	// watt cap (forcing an enforcement pass that down-clocks or migrates
	// residents) and lift it again. After every event the harness checks
	// the budget holds (unless the last enforcement reported the floor
	// exceeds it) and that the watt ledger never drifts from a fresh
	// fleet-wide estimate. Like PreemptRate, 0 leaves the schedule and
	// every pre-existing golden untouched.
	CapRate float64
	// CapWatts is the budget an engaged flip imposes (jittered ±25% per
	// flip), in watts. Required when CapRate > 0.
	CapWatts float64
}

// Injection is one scheduled fault, recorded before the run executes. The
// schedule is a pure function of (scenario, chaos seed, rate) and is
// shared by every policy, so the transcript names the exact injections a
// failure replays from.
type Injection struct {
	Time   float64 `json:"time"`
	Kind   string  `json:"kind"`
	Target string  `json:"target"`
}

// PolicyOutcome is one policy's bookkeeping over the chaotic replay.
// Every count is deterministic for a fixed (scenario, seed, rate) at any
// worker count; scheduling-dependent metrics (profile run/dedup counters)
// are deliberately excluded.
type PolicyOutcome struct {
	Policy string `json:"policy"`
	// Placed counts direct admissions; QueueAdmitted counts arrivals that
	// waited in the queue first. Faulted arrivals hit an injected error,
	// Cancelled ones a cancelled context; Killed residents died with their
	// machine.
	Placed          int    `json:"placed"`
	Faulted         int    `json:"faulted"`
	Cancelled       int    `json:"cancelled"`
	Killed          int    `json:"killed"`
	QueueAdmitted   uint64 `json:"queue_admitted"`
	QueueAbandoned  uint64 `json:"queue_abandoned"`
	QueueDropped    uint64 `json:"queue_dropped"`
	QueueRejected   uint64 `json:"queue_rejected"`
	Moves           uint64 `json:"moves"`
	RebalanceFaults int    `json:"rebalance_faults"`
	// Preemption accounting (present only when the preemption fault class
	// is enabled). PreemptPlaced counts priority arrivals admitted
	// directly; Preemptions..PreemptAborted mirror the fleet's
	// fleet_preempt_* counters at the end of the run.
	PreemptPlaced   int    `json:"preempt_placed,omitempty"`
	Preemptions     uint64 `json:"preemptions,omitempty"`
	PreemptRequeued uint64 `json:"preempt_requeued,omitempty"`
	PreemptDropped  uint64 `json:"preempt_dropped,omitempty"`
	PreemptAborted  uint64 `json:"preempt_aborted,omitempty"`
	// Cap-flip accounting (present only when the cap fault class is
	// enabled): enforcement actions taken and how many enforcement passes
	// ended still over budget (the idle floor alone exceeded the cap).
	CapFlips        int      `json:"cap_flips,omitempty"`
	CapDownclocks   int      `json:"cap_downclocks,omitempty"`
	CapMigrations   int      `json:"cap_migrations,omitempty"`
	CapUnsatisfied  int      `json:"cap_unsatisfied,omitempty"`
	NodesLost       int      `json:"nodes_lost"`
	NodesRestored   int      `json:"nodes_restored"`
	InvariantChecks int      `json:"invariant_checks"`
	Violations      []string `json:"violations,omitempty"`
	AvgSPI          float64  `json:"avg_spi"`
	AvgWatts        float64  `json:"avg_watts"`
	FinalResidents  int      `json:"final_residents"`
}

// Transcript is the full chaos-run record: the fault schedule plus one
// outcome per policy. Marshalled with json.MarshalIndent it is the golden
// artifact CI pins.
type Transcript struct {
	ScenarioSeed uint64          `json:"scenario_seed"`
	ChaosSeed    uint64          `json:"chaos_seed"`
	Rate         float64         `json:"rate"`
	PreemptRate  float64         `json:"preempt_rate,omitempty"`
	CapRate      float64         `json:"cap_rate,omitempty"`
	CapWatts     float64         `json:"cap_watts,omitempty"`
	Machines     []string        `json:"machines"`
	Processes    int             `json:"processes"`
	BurstProcs   int             `json:"burst_procs"`
	PreemptProcs int             `json:"preempt_procs,omitempty"`
	Horizon      float64         `json:"horizon"`
	Injections   []Injection     `json:"injections"`
	Policies     []PolicyOutcome `json:"policies"`
}

// Harness replays a fleet scenario under a deterministic fault schedule,
// checking every model invariant after every event.
//
// Determinism contract: every chaos decision is drawn serially from
// seeded streams while the schedule is built — never inside concurrent
// code — and faults are armed per sim event, applying uniformly to every
// seam consult during that one operation. Together with the parallel
// engine's serial-order first-error rule, the transcript is byte-identical
// across runs and across worker counts. (A per-consult injector such as
// Seeded cannot make that promise: under early abort, whether a given
// consult happens at all depends on the worker count.)
type Harness struct {
	sc   *fleet.Scenario
	opts Options
}

// NewHarness builds a chaos harness over a validated scenario.
func NewHarness(sc *fleet.Scenario, opts Options) *Harness {
	return &Harness{sc: sc, opts: opts}
}

// Fault classes armed on arrivals, drawn per process up front.
const (
	classNone = iota
	classProfile
	classScore
	classPlace
	classCancel
)

var className = map[int]string{
	classProfile: "profile_error",
	classScore:   "score_error",
	classPlace:   "place_error",
	classCancel:  "cancel",
}

// armer is the event-scoped fault switch behind the Intercept seam: the
// serial event loop arms one fault class for the duration of one fleet
// operation, and every seam consult at the matching site — from any
// worker — observes the same injected failure.
type armer struct{ v atomic.Int32 }

func (a *armer) arm(class int) { a.v.Store(int32(class)) }

func (a *armer) intercept(site, key string) error {
	var want string
	switch a.v.Load() {
	case classProfile:
		want = "fleet.profile"
	case classScore:
		want = "fleet.score"
	case classPlace, classPreemptFault:
		want = "manager.place_at"
	case classRebalance:
		want = "fleet.rebalance"
	default:
		return nil
	}
	if site == want {
		return &Fault{Site: site, Key: key}
	}
	return nil
}

const (
	classRebalance = classCancel + 1
	// classPreemptFault faults the placement commit of a high-priority
	// arrival: on a full fleet that lands mid-preemption — after the
	// victim's eviction — forcing the transactional rollback path.
	classPreemptFault = classRebalance + 1
)

// Event kinds in same-timestamp order: departures free capacity first,
// outages resolve next, then rebalancing sees the layout, then arrivals
// and bursts claim slots.
const (
	evDepart = iota
	evFail
	evRestore
	evRebalance
	evArrive
	evBurst
	// evPreempt sorts after ordinary arrivals at the same timestamp, so a
	// priority arrival always contends against the fullest fleet.
	evPreempt
	// evCapFlip sorts last: a budget change always sees the timestamp's
	// final layout, mirroring the sim's cap-event ordering.
	evCapFlip
)

type event struct {
	time float64
	kind int
	seq  int
	proc int // trace index (arrive/depart/burst)
	node int // node index (fail/restore)
}

// schedule is the precomputed chaos plan for one run.
type schedule struct {
	nodeNames  []string
	trace      []fleet.TraceProc // scenario procs, then bursts, then preempt procs
	bursts     int               // count of burst procs appended to trace
	preempts   int               // count of priority procs appended after the bursts
	classes    []int             // per trace proc: armed fault class
	prios      []int             // per trace proc: priority class (0 except preempt procs)
	capFlips   []float64         // cap-flip budgets in schedule order (0 = lift the cap)
	events     []event
	rebalFault map[int]bool // rebalance event seq -> inject
	horizon    float64
	injections []Injection
}

func (h *Harness) buildSchedule() *schedule {
	sc := h.sc
	s := &schedule{rebalFault: map[int]bool{}}
	for i, m := range sc.Machines {
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("m%d", i)
		}
		s.nodeNames = append(s.nodeNames, name)
	}
	s.trace = sc.Trace()
	traceHorizon := 0.0
	for _, p := range s.trace {
		if p.Depart > traceHorizon {
			traceHorizon = p.Depart
		}
	}

	base := xrand.New(h.opts.Seed)
	outR, burstR, arriveR, rebalR := base.Split(), base.Split(), base.Split(), base.Split()
	rate := h.opts.Rate

	// Node outages: at most one per node, down inside the first 60% of
	// the trace so the recovery (and the pump into it) lands in-run.
	type outage struct {
		node     int
		down, up float64
	}
	var outages []outage
	for i := range s.nodeNames {
		if outR.Float64() >= rate {
			continue
		}
		down := outR.Float64() * traceHorizon * 0.6
		up := down + (0.1+0.3*outR.Float64())*traceHorizon
		outages = append(outages, outage{node: i, down: down, up: up})
	}

	// Queue-pressure bursts: clusters of simultaneous submissions, sized
	// to overflow a small queue. Burst processes get ordinary lifetimes
	// so every one departs (or abandons the queue) before the horizon
	// accounting closes.
	pool := h.workloadPool()
	nBursts := int(rate*8 + 0.5)
	for b := 0; b < nBursts; b++ {
		at := burstR.Float64() * traceHorizon * 0.8
		size := 1 + burstR.Intn(3)
		for j := 0; j < size; j++ {
			spec := pool[burstR.Intn(len(pool))]
			life := -sc.MeanLifetime * math.Log(1-burstR.Float64())
			id := len(s.trace)
			s.trace = append(s.trace, fleet.TraceProc{ID: id, Spec: spec, Arrive: at, Depart: at + life})
			s.bursts++
			s.injections = append(s.injections, Injection{
				Time: at, Kind: "burst", Target: fmt.Sprintf("%s#%d", spec.Name, id),
			})
		}
	}

	// Per-arrival fault classes for the scenario procs (bursts bypass
	// placement, so they draw no class). Exactly two uniforms per proc,
	// so the stream layout is stable under scenario edits elsewhere.
	s.classes = make([]int, len(s.trace))
	for i := 0; i < len(s.trace)-s.bursts; i++ {
		u, pick := arriveR.Float64(), arriveR.Float64()
		if u >= rate {
			continue
		}
		class := classProfile + int(pick*4)
		if class > classCancel {
			class = classCancel
		}
		s.classes[i] = class
		s.injections = append(s.injections, Injection{
			Time: s.trace[i].Arrive, Kind: className[class],
			Target: fmt.Sprintf("%s#%d", s.trace[i].Spec.Name, i),
		})
	}

	// High-priority arrivals for the preemption fault class. The fifth
	// stream is only split off when the class is enabled, so a disabled
	// run draws the exact byte-identical schedule it always did. Some
	// priority arrivals additionally arm a commit fault, exercising the
	// preemption rollback under chaos.
	s.prios = make([]int, len(s.trace))
	if h.opts.PreemptRate > 0 {
		preR := base.Split()
		nPre := 2 + int(h.opts.PreemptRate*8+0.5)
		for k := 0; k < nPre; k++ {
			// Land inside the congested middle of the trace so the fleet
			// is plausibly full when the priority arrival hits it.
			at := (0.2 + 0.6*preR.Float64()) * traceHorizon
			spec := pool[preR.Intn(len(pool))]
			life := -sc.MeanLifetime * math.Log(1-preR.Float64())
			prio := 1 + preR.Intn(3)
			class := classNone
			if preR.Float64() < rate {
				class = classPreemptFault
			}
			id := len(s.trace)
			s.trace = append(s.trace, fleet.TraceProc{ID: id, Spec: spec, Arrive: at, Depart: at + life})
			s.classes = append(s.classes, class)
			s.prios = append(s.prios, prio)
			s.preempts++
			target := fmt.Sprintf("%s#%d:p%d", spec.Name, id, prio)
			s.injections = append(s.injections, Injection{Time: at, Kind: "preempt_arrival", Target: target})
			if class == classPreemptFault {
				s.injections = append(s.injections, Injection{Time: at, Kind: "preempt_commit_error", Target: target})
			}
		}
	}

	// Cap flips: alternately engage a jittered budget and lift it, inside
	// the populated middle of the trace so enforcement has residents to
	// shed. The stream is only split off when the class is enabled, so a
	// disabled run draws the exact schedule it always did.
	if h.opts.CapRate > 0 {
		capR := base.Split()
		nFlips := 1 + int(h.opts.CapRate*6+0.5)
		for k := 0; k < nFlips; k++ {
			at := (0.15 + 0.7*capR.Float64()) * traceHorizon
			watts := 0.0
			kind := "cap_off"
			if k%2 == 0 {
				watts = h.opts.CapWatts * (0.75 + 0.5*capR.Float64())
				kind = "cap_engage"
			} else {
				// Burn the second uniform anyway so engage/lift alternation
				// never shifts the stream layout.
				capR.Float64()
			}
			s.capFlips = append(s.capFlips, watts)
			s.events = append(s.events, event{time: at, kind: evCapFlip, seq: k, proc: k})
			s.injections = append(s.injections, Injection{
				Time: at, Kind: kind, Target: fmt.Sprintf("%.4g W", watts),
			})
		}
	}

	s.horizon = 0
	for _, p := range s.trace {
		if p.Depart > s.horizon {
			s.horizon = p.Depart
		}
	}

	n0 := len(s.trace) - s.bursts - s.preempts
	for _, p := range s.trace[:n0] {
		s.events = append(s.events,
			event{time: p.Arrive, kind: evArrive, seq: p.ID, proc: p.ID},
			event{time: p.Depart, kind: evDepart, seq: p.ID, proc: p.ID},
		)
	}
	for _, p := range s.trace[n0 : n0+s.bursts] {
		s.events = append(s.events,
			event{time: p.Arrive, kind: evBurst, seq: p.ID, proc: p.ID},
			event{time: p.Depart, kind: evDepart, seq: p.ID, proc: p.ID},
		)
	}
	for _, p := range s.trace[n0+s.bursts:] {
		s.events = append(s.events,
			event{time: p.Arrive, kind: evPreempt, seq: p.ID, proc: p.ID},
			event{time: p.Depart, kind: evDepart, seq: p.ID, proc: p.ID},
		)
	}
	for _, o := range outages {
		s.events = append(s.events, event{time: o.down, kind: evFail, seq: o.node, node: o.node})
		s.injections = append(s.injections, Injection{Time: o.down, Kind: "node_down", Target: s.nodeNames[o.node]})
		if o.up < s.horizon {
			s.events = append(s.events, event{time: o.up, kind: evRestore, seq: o.node, node: o.node})
			s.injections = append(s.injections, Injection{Time: o.up, Kind: "node_up", Target: s.nodeNames[o.node]})
		}
	}
	if sc.RebalanceEvery > 0 {
		for k, t := 1, sc.RebalanceEvery; t < s.horizon; k, t = k+1, float64(k+1)*sc.RebalanceEvery {
			s.events = append(s.events, event{time: t, kind: evRebalance, seq: k})
			if rebalR.Float64() < rate {
				s.rebalFault[k] = true
				s.injections = append(s.injections, Injection{Time: t, Kind: "rebalance_error", Target: fmt.Sprintf("pass %d", k)})
			}
		}
	}
	sort.SliceStable(s.events, func(i, j int) bool {
		a, b := s.events[i], s.events[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.seq < b.seq
	})
	sort.SliceStable(s.injections, func(i, j int) bool {
		a, b := s.injections[i], s.injections[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	return s
}

func (h *Harness) workloadPool() []*workload.Spec {
	if len(h.sc.Workloads) > 0 {
		out := make([]*workload.Spec, len(h.sc.Workloads))
		for i, n := range h.sc.Workloads {
			out[i] = workload.ByName(n)
		}
		return out
	}
	return workload.Suite()
}

func (h *Harness) policies() []string {
	if len(h.sc.Policies) > 0 {
		return h.sc.Policies
	}
	var out []string
	for _, p := range fleet.Policies() {
		out = append(out, p.String())
	}
	return out
}

func (h *Harness) buildFleet(pname string, arm *armer) (*fleet.Fleet, error) {
	policy, err := fleet.ParsePolicy(pname)
	if err != nil {
		return nil, err
	}
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		return nil, err
	}
	var nodes []fleet.NodeConfig
	for _, m := range h.sc.Machines {
		preset, err := cli.MachineByName(m.Preset)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, fleet.NodeConfig{
			Name:       m.Name,
			Machine:    preset,
			Power:      pm,
			MaxPerCore: m.MaxPerCore,
		})
	}
	scoreCap := 0
	if h.opts.ColdScore {
		scoreCap = -1
	}
	return fleet.New(fleet.Config{
		Nodes:          nodes,
		Policy:         policy,
		BinPackCeiling: h.sc.BinPackCeiling,
		QueueCap:       h.sc.QueueCap,
		Seed:           h.sc.Seed,
		Workers:        h.opts.Workers,
		ScoreCacheCap:  scoreCap,
		Intercept:      arm.intercept,
		Profile: func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		},
	})
}

// Run replays the scenario under every requested policy against the
// shared fault schedule.
func (h *Harness) Run(ctx context.Context) (*Transcript, error) {
	if h.opts.Rate < 0 || h.opts.Rate > 1 {
		return nil, fmt.Errorf("chaos: rate %v outside [0, 1]", h.opts.Rate)
	}
	if h.opts.PreemptRate < 0 || h.opts.PreemptRate > 1 {
		return nil, fmt.Errorf("chaos: preempt rate %v outside [0, 1]", h.opts.PreemptRate)
	}
	if h.opts.CapRate < 0 || h.opts.CapRate > 1 {
		return nil, fmt.Errorf("chaos: cap rate %v outside [0, 1]", h.opts.CapRate)
	}
	if h.opts.CapRate > 0 && h.opts.CapWatts <= 0 {
		return nil, fmt.Errorf("chaos: cap rate %v needs a positive CapWatts budget", h.opts.CapRate)
	}
	if err := h.sc.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	s := h.buildSchedule()
	tr := &Transcript{
		ScenarioSeed: h.sc.Seed,
		ChaosSeed:    h.opts.Seed,
		Rate:         h.opts.Rate,
		PreemptRate:  h.opts.PreemptRate,
		CapRate:      h.opts.CapRate,
		CapWatts:     h.opts.CapWatts,
		Processes:    len(s.trace) - s.bursts - s.preempts,
		BurstProcs:   s.bursts,
		PreemptProcs: s.preempts,
		Horizon:      s.horizon,
		Injections:   append([]Injection{}, s.injections...),
	}
	for i, m := range h.sc.Machines {
		tr.Machines = append(tr.Machines, s.nodeNames[i]+":"+m.Preset)
	}
	for _, pname := range h.policies() {
		po, err := h.runPolicy(ctx, pname, s)
		if err != nil {
			return nil, fmt.Errorf("chaos: policy %s: %w", pname, err)
		}
		tr.Policies = append(tr.Policies, po)
	}
	return tr, nil
}

type procState struct {
	resident bool
	node     string
	instance string
	queued   bool
	ticket   int
}

func (h *Harness) runPolicy(ctx context.Context, pname string, s *schedule) (PolicyOutcome, error) {
	arm := &armer{}
	f, err := h.buildFleet(pname, arm)
	if err != nil {
		return PolicyOutcome{}, err
	}
	po := PolicyOutcome{Policy: pname}
	checker := &Checker{}
	states := make([]procState, len(s.trace))

	// With the preemption class enabled every process carries its trace ID
	// as its tag, so a victim stays tracked across eviction and requeue
	// (PreemptedInfo echoes the tag). Disabled runs keep the legacy
	// untagged placements and their byte-identical transcripts.
	tagOf := func(id int) string {
		if h.opts.PreemptRate > 0 {
			return strconv.Itoa(id)
		}
		return ""
	}

	// noteVictim re-points a preemption victim's state at its new life:
	// back in the queue under its fresh ticket, or gone (the drop is
	// counted by the fleet and checked against the ledger at the end).
	noteVictim := func(pi *fleet.PreemptedInfo) error {
		if pi == nil {
			return nil
		}
		if pi.Tag == "" {
			return fmt.Errorf("preemption victim %s/%s has no tag", pi.Node, pi.Name)
		}
		id, err := strconv.Atoi(pi.Tag)
		if err != nil {
			return fmt.Errorf("bad victim tag %q: %w", pi.Tag, err)
		}
		if pi.Requeued {
			states[id] = procState{queued: true, ticket: pi.Ticket}
		} else {
			states[id] = procState{}
		}
		return nil
	}

	admit := func(placed []fleet.Placed) error {
		for _, p := range placed {
			// A pumped high-priority entry may itself preempt: its victim
			// changes state in the same breath as the admission.
			if err := noteVictim(p.Preempted); err != nil {
				return err
			}
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

	prevT := 0.0
	var spiSec, wattSec float64
	integrate := func(now float64) error {
		if now <= prevT {
			return nil
		}
		spi, watts, err := f.Totals(ctx)
		if err != nil {
			return err
		}
		spiSec += spi * (now - prevT)
		wattSec += watts * (now - prevT)
		prevT = now
		return nil
	}

	// capSatisfied records whether the last enforcement pass got the fleet
	// under its budget; while it is false the "usage ≤ cap" law is waived
	// (the idle floor alone exceeds the cap) and only ledger consistency
	// is checked.
	capSatisfied := true
	check := func() {
		po.InvariantChecks++
		for _, v := range checker.CheckFleet(ctx, f) {
			if len(po.Violations) < 16 {
				po.Violations = append(po.Violations, v.String())
			}
		}
		for _, v := range CheckCap(ctx, f, capSatisfied) {
			if len(po.Violations) < 16 {
				po.Violations = append(po.Violations, v.String())
			}
		}
	}

	// enforce runs one cap-enforcement pass and folds its actions into the
	// outcome, re-pointing any resident the pass migrated.
	enforce := func() error {
		rep, err := f.EnforceCap(ctx)
		if err != nil {
			return err
		}
		po.CapDownclocks += rep.Downclocks
		po.CapMigrations += rep.Migrations
		if !rep.Satisfied {
			po.CapUnsatisfied++
		}
		capSatisfied = rep.Satisfied
		for _, mv := range rep.Moves {
			for i := range states {
				if states[i].resident && states[i].node == mv.From && states[i].instance == mv.Name {
					states[i].node, states[i].instance = mv.To, mv.NewName
					break
				}
			}
		}
		return nil
	}

	// Priority-inversion law: Remove and RestoreNode pump the queue, and
	// those pumps are always fault-free (faults are only armed on arrival
	// and rebalance operations). An entry inverted at one pump may simply
	// have been requeued mid-pump (its backoff starts next round); one
	// that stays inverted under the same ticket across two consecutive
	// pumps was eligible for a full pump while outranking a resident —
	// that pump should have preempted on its behalf.
	prevInverted := map[int]bool{}
	pumped := func() {
		if h.opts.PreemptRate <= 0 {
			return
		}
		cur := map[int]bool{}
		for _, q := range PriorityInversions(f) {
			cur[q.Ticket] = true
			if prevInverted[q.Ticket] && len(po.Violations) < 16 {
				po.Violations = append(po.Violations, fmt.Sprintf(
					"preempt/inversion: ticket %d (%s, class %d) still outranks a resident after consecutive fault-free pumps",
					q.Ticket, q.Workload, q.Priority))
			}
		}
		prevInverted = cur
	}

	for _, ev := range s.events {
		if err := ctx.Err(); err != nil {
			return PolicyOutcome{}, err
		}
		if err := integrate(ev.time); err != nil {
			return PolicyOutcome{}, err
		}
		switch ev.kind {
		case evArrive:
			p := s.trace[ev.proc]
			if s.classes[ev.proc] == classCancel {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				_, err := f.Place(cctx, p.Spec)
				if !errors.Is(err, context.Canceled) {
					return PolicyOutcome{}, fmt.Errorf("cancelled place of %s#%d: got %v", p.Spec.Name, p.ID, err)
				}
				po.Cancelled++
				break
			}
			arm.arm(s.classes[ev.proc])
			placed, err := f.PlaceWith(ctx, p.Spec, fleet.PlaceOptions{Tag: tagOf(p.ID)})
			arm.arm(classNone)
			switch {
			case err == nil:
				po.Placed++
				states[ev.proc] = procState{resident: true, node: placed.Node, instance: placed.Name}
			case IsFault(err):
				po.Faulted++
			case errors.Is(err, fleet.ErrFleetFull):
				ticket, qerr := f.Submit(p.Spec, strconv.Itoa(p.ID))
				if qerr == nil {
					states[ev.proc] = procState{queued: true, ticket: ticket}
				} else if !errors.Is(qerr, fleet.ErrQueueFull) {
					return PolicyOutcome{}, qerr
				}
			default:
				return PolicyOutcome{}, err
			}
		case evBurst:
			p := s.trace[ev.proc]
			ticket, qerr := f.Submit(p.Spec, strconv.Itoa(p.ID))
			if qerr == nil {
				states[ev.proc] = procState{queued: true, ticket: ticket}
			} else if !errors.Is(qerr, fleet.ErrQueueFull) {
				return PolicyOutcome{}, qerr
			}
		case evPreempt:
			p := s.trace[ev.proc]
			arm.arm(s.classes[ev.proc])
			placed, err := f.PlaceWith(ctx, p.Spec, fleet.PlaceOptions{
				Tag:      tagOf(p.ID),
				Priority: s.prios[ev.proc],
			})
			arm.arm(classNone)
			switch {
			case err == nil:
				po.PreemptPlaced++
				states[ev.proc] = procState{resident: true, node: placed.Node, instance: placed.Name}
				if err := noteVictim(placed.Preempted); err != nil {
					return PolicyOutcome{}, err
				}
			case IsFault(err):
				// The armed commit fault fired — possibly mid-preemption,
				// in which case the fleet just rolled the eviction back.
				po.Faulted++
			case errors.Is(err, fleet.ErrFleetFull):
				// Full and nothing outranked: wait in the queue at class;
				// a later pump may still preempt on its behalf.
				ticket, qerr := f.SubmitWith(p.Spec, strconv.Itoa(p.ID), s.prios[ev.proc])
				if qerr == nil {
					states[ev.proc] = procState{queued: true, ticket: ticket}
				} else if !errors.Is(qerr, fleet.ErrQueueFull) {
					return PolicyOutcome{}, qerr
				}
			default:
				return PolicyOutcome{}, err
			}
		case evDepart:
			st := states[ev.proc]
			switch {
			case st.resident:
				admitted, err := f.Remove(ctx, st.node, st.instance)
				if err != nil {
					return PolicyOutcome{}, err
				}
				states[ev.proc] = procState{}
				if err := admit(admitted); err != nil {
					return PolicyOutcome{}, err
				}
				pumped()
			case st.queued:
				f.CancelQueued(st.ticket)
				states[ev.proc] = procState{}
			}
		case evFail:
			name := s.nodeNames[ev.node]
			evicted, err := f.FailNode(name)
			if err != nil {
				return PolicyOutcome{}, err
			}
			po.NodesLost++
			byInstance := map[string]bool{}
			for _, r := range evicted {
				byInstance[r.Name] = true
			}
			for i := range states {
				if states[i].resident && states[i].node == name && byInstance[states[i].instance] {
					states[i] = procState{}
					po.Killed++
				}
			}
		case evRestore:
			admitted, err := f.RestoreNode(ctx, s.nodeNames[ev.node])
			if err != nil {
				return PolicyOutcome{}, err
			}
			po.NodesRestored++
			if err := admit(admitted); err != nil {
				return PolicyOutcome{}, err
			}
			pumped()
			// A restored machine adds its idle draw without passing the
			// admission gate; under an engaged budget the cap controller
			// reacts to the capacity event.
			if f.PowerCap() > 0 {
				if err := enforce(); err != nil {
					return PolicyOutcome{}, err
				}
			}
		case evRebalance:
			if s.rebalFault[ev.seq] {
				arm.arm(classRebalance)
			}
			mv, err := f.Rebalance(ctx, h.sc.RebalanceMinImprovement)
			arm.arm(classNone)
			switch {
			case err == nil:
				for i := range states {
					if states[i].resident && states[i].node == mv.From && states[i].instance == mv.Name {
						states[i].node, states[i].instance = mv.To, mv.NewName
						break
					}
				}
			case IsFault(err):
				po.RebalanceFaults++
			case !errors.Is(err, manager.ErrNoImprovement):
				return PolicyOutcome{}, err
			}
		case evCapFlip:
			watts := s.capFlips[ev.proc]
			if err := f.SetPowerCap(ctx, watts); err != nil {
				return PolicyOutcome{}, err
			}
			po.CapFlips++
			if watts > 0 {
				if err := enforce(); err != nil {
					return PolicyOutcome{}, err
				}
			} else {
				capSatisfied = true
			}
		}
		check()
	}
	if err := integrate(s.horizon); err != nil {
		return PolicyOutcome{}, err
	}

	reg := f.Registry()
	po.QueueAdmitted = reg.CounterValue("fleet_queue_admitted_total")
	po.QueueAbandoned = reg.CounterValue("fleet_queue_abandoned_total")
	po.QueueDropped = reg.CounterValue("fleet_queue_dropped_total")
	po.QueueRejected = reg.CounterValue("fleet_queue_rejected_total")
	po.Moves = reg.CounterValue("fleet_rebalance_moves_total")
	po.Preemptions = reg.CounterValue("fleet_preempt_total")
	po.PreemptRequeued = reg.CounterValue("fleet_preempt_requeued_total")
	po.PreemptDropped = reg.CounterValue("fleet_preempt_dropped_total")
	po.PreemptAborted = reg.CounterValue("fleet_preempt_aborted_total")
	po.AvgSPI = spiSec / s.horizon
	po.AvgWatts = wattSec / s.horizon
	for _, st := range states {
		if st.resident || st.queued {
			po.FinalResidents++
		}
	}

	// Ledger conservation: every process — scenario arrival, burst, or
	// priority arrival — must end in exactly one disposition. A preemption
	// victim is intentionally counted twice (once placed, once resubmitted
	// by its requeue), so the expected total grows by the requeue count.
	submitted := reg.CounterValue("fleet_queue_submitted_total")
	total := uint64(po.Placed+po.PreemptPlaced+po.Faulted+po.Cancelled) + submitted + po.QueueRejected
	want := uint64(len(s.trace)) + po.PreemptRequeued
	if total != want {
		po.Violations = append(po.Violations, fmt.Sprintf(
			"conservation/ledger: placed %d + preempt-placed %d + faulted %d + cancelled %d + queued %d + queue-rejected %d != %d processes + %d requeues",
			po.Placed, po.PreemptPlaced, po.Faulted, po.Cancelled, submitted, po.QueueRejected, len(s.trace), po.PreemptRequeued))
	}
	return po, nil
}
