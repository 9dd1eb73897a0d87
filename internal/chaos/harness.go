package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"mpmc/internal/fleet"
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
	// PreemptRate in (0, 1] enables the preemption fault class: the
	// schedule gains high-priority arrivals (some with a commit fault
	// armed, exercising the preemption rollback), and after every queue
	// pump the harness asserts that no priority inversion survives two
	// consecutive fault-free pumps. 0 (the default) leaves the schedule —
	// and every pre-existing golden — untouched: the extra random stream
	// is only split off when the class is enabled.
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
	// Thread-group accounting (present only when the scenario places
	// groups): groups admitted whole (also counted in Placed) and groups
	// turned away whole for want of capacity. A group whose placement
	// faults or is cancelled counts as Faulted or Cancelled instead.
	GroupsPlaced   int `json:"groups_placed,omitempty"`
	GroupsRejected int `json:"groups_rejected,omitempty"`
	// FaultRollbacks counts faulted thread groups the fleet rolled back
	// after admitting some of their members (also counted in Faulted).
	FaultRollbacks int `json:"fault_rollbacks,omitempty"`
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
// checking every model invariant after every event. The replay itself is
// the simulator's (fleet.Replay): the harness adds the faults, the
// invariant sweep and the conservation ledger, so at rate 0 it reproduces
// fleet.Sim's averages and counters exactly.
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
	sim  *fleet.Sim
	sc   *fleet.Scenario
	opts Options
}

// NewHarness builds a chaos harness over the simulator's scenario. The
// simulator's worker count and score-memo capacity configure every
// replayed fleet; like in the simulator they affect speed, never the
// transcript.
func NewHarness(sim *fleet.Sim, opts Options) *Harness {
	return &Harness{sim: sim, sc: sim.Scenario(), opts: opts}
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
type armer struct {
	v atomic.Int32
	// held, set by the event loop for a thread group's score or place
	// fault, keeps the armed fault back until the operation's first
	// placement commit. A thread group's members commit one at a time
	// under the fleet lock, and a member's scoring finishes before its
	// commit, so the fault then lands on the second member whole: the
	// first is resident and PlaceGroup must roll it back. (Under
	// colocate-sharers a group is one bundled instance, so a held fault
	// never fires and the group places.)
	held atomic.Bool
}

func (a *armer) arm(class int) {
	a.v.Store(int32(class))
	a.held.Store(false)
}

func (a *armer) intercept(site, key string) error {
	if a.held.Load() {
		if site == "manager.place_at" {
			a.held.Store(false)
		}
		return nil
	}
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
// and bursts claim slots. The scenario's own kinds keep the simulator's
// relative order.
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
	// Budget changes sort last — the scenario's cap events, then the
	// injected flips — so they see the timestamp's final layout, as in
	// the simulator.
	evCap
	evCapFlip
)

// schedule is the precomputed chaos plan for one run.
type schedule struct {
	nodeNames  []string
	trace      []fleet.TraceProc // scenario procs, then bursts, then preempt procs
	bursts     int               // count of burst procs appended to trace
	preempts   int               // count of priority procs appended after the bursts
	classes    []int             // per trace proc: armed fault class
	prios      []int             // per trace proc: priority class (0 except preempt procs)
	capFlips   []float64         // cap-flip budgets in schedule order (0 = lift the cap)
	events     []fleet.Event
	rebalFault map[int]bool // rebalance event seq -> inject
	horizon    float64
	injections []Injection
}

func (h *Harness) buildSchedule() *schedule {
	sc := h.sc
	s := &schedule{rebalFault: map[int]bool{}, nodeNames: sc.NodeNames(), trace: sc.Trace()}
	traceHorizon := fleet.Horizon(s.trace)

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
		down := float64(outR.Float64() * traceHorizon * 0.6)
		up := down + float64((0.1+float64(0.3*outR.Float64()))*traceHorizon)
		outages = append(outages, outage{node: i, down: down, up: up})
	}

	// Queue-pressure bursts: clusters of simultaneous submissions, sized
	// to overflow a small queue. Burst processes get ordinary lifetimes
	// so every one departs (or abandons the queue) before the horizon
	// accounting closes.
	pool := sc.Pool()
	nBursts := int(float64(rate*8) + 0.5)
	for b := 0; b < nBursts; b++ {
		at := float64(burstR.Float64() * traceHorizon * 0.8)
		size := 1 + burstR.Intn(3)
		for j := 0; j < size; j++ {
			spec := pool[burstR.Intn(len(pool))]
			life := float64(-sc.MeanLifetime * math.Log(1-float64(burstR.Float64())))
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
		nPre := 2 + int(float64(h.opts.PreemptRate*8)+0.5)
		for k := 0; k < nPre; k++ {
			// Land inside the congested middle of the trace so the fleet
			// is plausibly full when the priority arrival hits it.
			at := float64((0.2 + float64(0.6*preR.Float64())) * traceHorizon)
			spec := pool[preR.Intn(len(pool))]
			life := float64(-sc.MeanLifetime * math.Log(1-float64(preR.Float64())))
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
		nFlips := 1 + int(float64(h.opts.CapRate*6)+0.5)
		for k := 0; k < nFlips; k++ {
			at := (0.15 + float64(0.7*capR.Float64())) * traceHorizon
			watts := 0.0
			kind := "cap_off"
			if k%2 == 0 {
				watts = h.opts.CapWatts * (0.75 + float64(0.5*capR.Float64()))
				kind = "cap_engage"
			} else {
				// Burn the second uniform anyway so engage/lift alternation
				// never shifts the stream layout.
				capR.Float64()
			}
			s.capFlips = append(s.capFlips, watts)
			s.events = append(s.events, fleet.Event{Time: at, Kind: evCapFlip, Seq: k, Proc: k})
			s.injections = append(s.injections, Injection{
				Time: at, Kind: kind, Target: fmt.Sprintf("%.4g W", watts),
			})
		}
	}

	s.horizon = fleet.Horizon(s.trace)
	for k, ce := range sc.CapEvents {
		s.events = append(s.events, fleet.Event{Time: ce.Time, Kind: evCap, Seq: k, Proc: k})
	}

	n0 := len(s.trace) - s.bursts - s.preempts
	for _, p := range s.trace {
		kind := evArrive
		if p.ID >= n0+s.bursts {
			kind = evPreempt
		} else if p.ID >= n0 {
			kind = evBurst
		}
		s.events = append(s.events,
			fleet.Event{Time: p.Arrive, Kind: kind, Seq: p.ID, Proc: p.ID},
			fleet.Event{Time: p.Depart, Kind: evDepart, Seq: p.ID, Proc: p.ID},
		)
	}
	for _, o := range outages {
		s.events = append(s.events, fleet.Event{Time: o.down, Kind: evFail, Seq: o.node, Proc: o.node})
		s.injections = append(s.injections, Injection{Time: o.down, Kind: "node_down", Target: s.nodeNames[o.node]})
		if o.up < s.horizon {
			s.events = append(s.events, fleet.Event{Time: o.up, Kind: evRestore, Seq: o.node, Proc: o.node})
			s.injections = append(s.injections, Injection{Time: o.up, Kind: "node_up", Target: s.nodeNames[o.node]})
		}
	}
	if sc.RebalanceEvery > 0 {
		for k, t := 1, sc.RebalanceEvery; t < s.horizon; k, t = k+1, float64(k+1)*sc.RebalanceEvery {
			s.events = append(s.events, fleet.Event{Time: t, Kind: evRebalance, Seq: k})
			if rebalR.Float64() < rate {
				s.rebalFault[k] = true
				s.injections = append(s.injections, Injection{Time: t, Kind: "rebalance_error", Target: fmt.Sprintf("pass %d", k)})
			}
		}
	}
	fleet.SortEvents(s.events)
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
	for _, pname := range h.sc.PolicyNames() {
		po, err := h.runPolicy(ctx, pname, s)
		if err != nil {
			return nil, fmt.Errorf("chaos: policy %s: %w", pname, err)
		}
		tr.Policies = append(tr.Policies, po)
	}
	return tr, nil
}

func (h *Harness) runPolicy(ctx context.Context, pname string, s *schedule) (PolicyOutcome, error) {
	arm := &armer{}
	r, err := h.sim.NewReplay(pname, len(s.trace), arm.intercept)
	if err != nil {
		return PolicyOutcome{}, err
	}
	f := r.Fleet()
	po := PolicyOutcome{Policy: pname}
	checker := &Checker{}

	violation := func(v string) {
		if len(po.Violations) < 16 {
			po.Violations = append(po.Violations, v)
		}
	}
	check := func() {
		po.InvariantChecks++
		for _, v := range checker.CheckFleet(ctx, f) {
			violation(v.String())
		}
		for _, v := range CheckCap(ctx, f, r.CapSatisfied()) {
			violation(v.String())
		}
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
			if prevInverted[q.Ticket] {
				violation(fmt.Sprintf(
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
		if err := r.Advance(ctx, ev.Time); err != nil {
			return PolicyOutcome{}, err
		}
		switch ev.Kind {
		case evArrive, evPreempt:
			// The fault class is armed for this one operation; a
			// cancel-class arrival runs on an already-cancelled context.
			p, class := s.trace[ev.Proc], s.classes[ev.Proc]
			actx := ctx
			if class == classCancel {
				var cancel context.CancelFunc
				actx, cancel = context.WithCancel(ctx)
				cancel()
			}
			arm.arm(class)
			arm.held.Store(p.Threads > 1 && (class == classScore || class == classPlace))
			admitted, err := r.Arrive(actx, p, s.prios[ev.Proc])
			arm.arm(classNone)
			switch {
			case class == classCancel:
				if !errors.Is(err, context.Canceled) {
					return PolicyOutcome{}, fmt.Errorf("cancelled place of %s#%d: got %v", p.Spec.Name, p.ID, err)
				}
				po.Cancelled++
			case IsFault(err):
				// On a priority arrival the armed commit fault may land
				// mid-preemption; the fleet then rolled the eviction back.
				po.Faulted++
				if errors.Is(err, fleet.ErrRolledBack) {
					po.FaultRollbacks++
				}
			case err != nil:
				return PolicyOutcome{}, err
			case admitted && ev.Kind == evPreempt:
				po.PreemptPlaced++
			case admitted:
				po.Placed++
				if p.Threads > 1 {
					po.GroupsPlaced++
				}
			case p.Threads > 1:
				po.GroupsRejected++
			}
		case evBurst:
			r.Submit(s.trace[ev.Proc], 0)
		case evDepart:
			removed, err := r.Depart(ctx, ev.Proc)
			if err != nil {
				return PolicyOutcome{}, err
			}
			if removed {
				pumped()
			}
		case evFail:
			killed, err := r.FailNode(s.nodeNames[ev.Proc])
			if err != nil {
				return PolicyOutcome{}, err
			}
			po.NodesLost++
			po.Killed += killed
		case evRestore:
			if err := r.RestoreNode(ctx, s.nodeNames[ev.Proc]); err != nil {
				return PolicyOutcome{}, err
			}
			po.NodesRestored++
			pumped()
		case evRebalance:
			if s.rebalFault[ev.Seq] {
				arm.arm(classRebalance)
			}
			err := r.Rebalance(ctx, h.sc.RebalanceMinImprovement)
			arm.arm(classNone)
			switch {
			case IsFault(err):
				po.RebalanceFaults++
			case err != nil:
				return PolicyOutcome{}, err
			}
		case evCap:
			if err := r.SetCap(ctx, h.sc.CapEvents[ev.Proc].Watts); err != nil {
				return PolicyOutcome{}, err
			}
		case evCapFlip:
			if err := r.SetCap(ctx, s.capFlips[ev.Proc]); err != nil {
				return PolicyOutcome{}, err
			}
			po.CapFlips++
		}
		check()
	}

	pr, err := r.Report(ctx, s.horizon)
	if err != nil {
		return PolicyOutcome{}, err
	}
	reg := f.Registry()
	po.QueueAdmitted = pr.QueueAdmitted
	po.QueueAbandoned = pr.QueueAbandoned
	po.QueueDropped = reg.CounterValue("fleet_queue_dropped_total")
	po.QueueRejected = pr.QueueRejected
	po.Moves = pr.Moves
	po.Preemptions = reg.CounterValue("fleet_preempt_total")
	po.PreemptRequeued = reg.CounterValue("fleet_preempt_requeued_total")
	po.PreemptDropped = reg.CounterValue("fleet_preempt_dropped_total")
	po.PreemptAborted = reg.CounterValue("fleet_preempt_aborted_total")
	po.CapDownclocks = int(pr.CapDownclocks)
	po.CapMigrations = int(pr.CapMigrations)
	po.CapUnsatisfied = int(pr.CapUnsatisfied)
	po.AvgSPI = pr.AvgSPI
	po.AvgWatts = pr.AvgWatts
	po.FinalResidents = pr.FinalResidents

	// Ledger conservation: every process — scenario arrival, burst, or
	// priority arrival — must end in exactly one disposition. A preemption
	// victim is intentionally counted twice (once placed, once resubmitted
	// by its requeue), so the expected total grows by the requeue count.
	submitted := reg.CounterValue("fleet_queue_submitted_total")
	total := uint64(po.Placed+po.PreemptPlaced+po.Faulted+po.Cancelled+po.GroupsRejected) + submitted + po.QueueRejected
	want := uint64(len(s.trace)) + po.PreemptRequeued
	if total != want {
		po.Violations = append(po.Violations, fmt.Sprintf(
			"conservation/ledger: placed %d + preempt-placed %d + faulted %d + cancelled %d + groups-rejected %d + queued %d + queue-rejected %d != %d processes + %d requeues",
			po.Placed, po.PreemptPlaced, po.Faulted, po.Cancelled, po.GroupsRejected, submitted, po.QueueRejected, len(s.trace), po.PreemptRequeued))
	}
	return po, nil
}
