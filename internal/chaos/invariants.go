package chaos

import (
	"context"
	"fmt"
	"math"

	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/threads"
)

// Violation is one failed invariant check: which guarantee broke and the
// concrete numbers that broke it.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Checker verifies the paper's model guarantees against live scheduler
// state. A zero Checker is ready to use: SolverAuto, tolerance 1e-6.
//
// The invariants, by paper equation:
//   - Eq. 1: every co-run group's equilibrium sizes satisfy ΣS_i = A under
//     contention (each S_i = GMax_i when the appetites cannot fill the
//     cache), with 0 < S_i ≤ min(A, GMax_i) always.
//   - MPA(S) is monotonically non-increasing in S for every resident
//     feature vector (the stack-distance property behind Eq. 6).
//   - Eq. 10: the combination count of every cache group is exactly
//     Π|asg[c]| over its busy cores and divides evenly into per-resident
//     appearances; the fleet-wide expectation term count equals the
//     resident count (fixed under migration — see Terms).
//   - Capacity: no core holds more than MaxPerCore instances, no core
//     index is out of range, and a down node holds nothing.
//   - Conservation: every queue submission is admitted, abandoned,
//     dropped, or still pending — counters and queue depth always balance.
type Checker struct {
	// Solver selects the equilibrium algorithm (SolverAuto by default).
	Solver core.SolverMethod
	// Tol is the relative tolerance for Eq. 1 sums (0 = 1e-6).
	Tol float64
}

func (c *Checker) tol() float64 {
	if c.Tol > 0 {
		return c.Tol
	}
	return 1e-6
}

// CheckFleet runs every invariant against one consistent snapshot of the
// fleet. The returned slice is empty when all checks pass. Queue-counter
// conservation is only meaningful when no mutation is concurrently in
// flight; call it between operations (tests) or at quiescent points.
func (c *Checker) CheckFleet(ctx context.Context, f *fleet.Fleet) []Violation {
	var out []Violation
	for _, ni := range f.Inspect() {
		out = append(out, c.CheckNode(ctx, ni)...)
	}
	reg := f.Registry()
	submitted := reg.CounterValue("fleet_queue_submitted_total")
	admitted := reg.CounterValue("fleet_queue_admitted_total")
	abandoned := reg.CounterValue("fleet_queue_abandoned_total")
	dropped := reg.CounterValue("fleet_queue_dropped_total")
	depth := uint64(f.QueueDepth())
	if submitted != admitted+abandoned+dropped+depth {
		out = append(out, Violation{
			Invariant: "conservation/queue",
			Detail: fmt.Sprintf("submitted %d != admitted %d + abandoned %d + dropped %d + depth %d",
				submitted, admitted, abandoned, dropped, depth),
		})
	}
	// Preemption disposition: every committed preemption's victim is
	// either requeued or reported dropped — never lost silently. Aborted
	// (rolled-back) preemptions count in neither side. All three counters
	// read 0 on fleets that never preempt, so the law is vacuous there.
	preempts := reg.CounterValue("fleet_preempt_total")
	requeued := reg.CounterValue("fleet_preempt_requeued_total")
	vdropped := reg.CounterValue("fleet_preempt_dropped_total")
	if preempts != requeued+vdropped {
		out = append(out, Violation{
			Invariant: "conservation/preemption",
			Detail: fmt.Sprintf("preemptions %d != requeued %d + dropped %d (a victim vanished)",
				preempts, requeued, vdropped),
		})
	}
	// Thread-group member ledger: every spawned member is either placed
	// (its group admitted whole) or faulted (its group rolled back whole).
	// All three counters read 0 on fleets that never place a group, so the
	// law is vacuous there.
	spawned := reg.CounterValue("fleet_group_spawned_members_total")
	gplaced := reg.CounterValue("fleet_group_placed_members_total")
	faulted := reg.CounterValue("fleet_group_faulted_members_total")
	if spawned != gplaced+faulted {
		out = append(out, Violation{
			Invariant: "conservation/group-ledger",
			Detail: fmt.Sprintf("members spawned %d != placed %d + faulted %d (a member vanished)",
				spawned, gplaced, faulted),
		})
	}
	return out
}

// CheckCap verifies the watt-budget invariants at a quiescent point.
// Vacuous on uncapped fleets. Two laws:
//
//   - Budget: the ledger's tracked draw never exceeds the cap — admission
//     is cap-gated and enforcement sheds the rest. Waived while satisfied
//     is false: the last enforcement pass reported that even the floor
//     (every rung at minimum, no migration shedding watts) exceeds the
//     budget, so being over-cap is the reported, not silent, condition.
//   - Ledger: the tracked draw always agrees with a fresh fleet-wide
//     estimate — per-mutation row updates never drift from re-derivation.
func CheckCap(ctx context.Context, f *fleet.Fleet, satisfied bool) []Violation {
	cap := f.PowerCap()
	if cap <= 0 {
		return nil
	}
	var out []Violation
	usage := f.CapUsage()
	if satisfied && usage > cap*(1+1e-9) {
		out = append(out, Violation{
			Invariant: "cap/budget",
			Detail:    fmt.Sprintf("tracked draw %.9g W exceeds the %.9g W budget", usage, cap),
		})
	}
	_, watts, err := f.Totals(ctx)
	if err != nil {
		out = append(out, Violation{
			Invariant: "cap/ledger",
			Detail:    fmt.Sprintf("fresh estimate failed: %v", err),
		})
		return out
	}
	tol := 1e-6 * math.Max(1, usage)
	if math.Abs(watts-usage) > tol {
		out = append(out, Violation{
			Invariant: "cap/ledger",
			Detail:    fmt.Sprintf("ledger %.9g W drifts from fresh estimate %.9g W", usage, watts),
		})
	}
	return out
}

// PriorityInversions returns the queue entries that are currently both
// eligible (backoff served) and strictly outranking some resident on an
// up node — entries a preempting pump should have admitted. An inversion
// is legal transiently: a victim requeued during a pump only becomes
// eligible at the next round. The harness therefore only flags an entry
// that stays inverted, under the same ticket, across two consecutive
// fault-free pumps.
func PriorityInversions(f *fleet.Fleet) []fleet.QueuedEntry {
	minPrio, any := 0, false
	for _, ni := range f.Inspect() {
		if ni.Down {
			continue
		}
		for _, p := range ni.Priorities {
			if !any || p < minPrio {
				minPrio, any = p, true
			}
		}
	}
	if !any {
		return nil
	}
	var out []fleet.QueuedEntry
	for _, q := range f.QueuedInfo() {
		if q.Eligible && q.Priority > minPrio {
			out = append(out, q)
		}
	}
	return out
}

// CheckNode runs the per-machine invariants against one inspected node.
func (c *Checker) CheckNode(ctx context.Context, ni fleet.NodeInspection) []Violation {
	var out []Violation
	bad := func(invariant, format string, args ...any) {
		out = append(out, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf("node %s: ", ni.Name) + fmt.Sprintf(format, args...),
		})
	}

	if ni.Down && len(ni.Residents) > 0 {
		bad("capacity/down-node-empty", "down but holds %d resident(s)", len(ni.Residents))
		return out
	}

	perCore := make([]int, ni.Machine.NumCores)
	for _, r := range ni.Residents {
		if r.Core < 0 || r.Core >= ni.Machine.NumCores {
			bad("capacity/core-range", "resident %s on core %d of %d", r.Name, r.Core, ni.Machine.NumCores)
			return out
		}
		perCore[r.Core]++
		if r.Feature == nil {
			bad("capacity/feature", "resident %s has no feature vector", r.Name)
			return out
		}
	}
	if ni.MaxPerCore > 0 {
		for cix, n := range perCore {
			if n > ni.MaxPerCore {
				bad("capacity/max-per-core", "core %d holds %d > cap %d", cix, n, ni.MaxPerCore)
			}
		}
	}

	asg := ni.Assignment()
	a := float64(ni.Machine.Assoc)
	for gi, group := range ni.Machine.Groups {
		var busy []int
		for _, cix := range group {
			if len(asg[cix]) > 0 {
				busy = append(busy, cix)
			}
		}
		if len(busy) == 0 {
			continue
		}

		// Eq. 10 accounting: the combination count is the product of the
		// per-core choice counts, and every busy core's choice count must
		// divide it (per-resident appearances are integral).
		want := 1
		for _, cix := range busy {
			want *= len(asg[cix])
		}
		for _, cix := range busy {
			if want%len(asg[cix]) != 0 {
				bad("eq10/appearances", "group %d: %d combinations not divisible by %d choices on core %d",
					gi, want, len(asg[cix]), cix)
			}
		}

		// Eq. 1 over every Eq. 10 combination of this group.
		combo := make([]*core.FeatureVector, len(busy))
		combos := 0
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == len(busy) {
				combos++
				out = append(out, c.checkGroup(ctx, ni.Name, gi, combo, a)...)
				return len(out) < 32 // stop enumerating once clearly broken
			}
			for _, f := range asg[busy[i]] {
				combo[i] = f
				if !rec(i + 1) {
					return false
				}
			}
			return true
		}
		if rec(0) && combos != want {
			bad("eq10/combinations", "group %d: enumerated %d combinations, want %d", gi, combos, want)
		}
	}

	// MPA monotonicity per distinct resident feature vector.
	seen := map[*core.FeatureVector]bool{}
	for _, r := range ni.Residents {
		f := r.Feature
		if seen[f] {
			continue
		}
		seen[f] = true
		prev := math.Inf(1)
		for i := 0; i <= 16; i++ {
			m := f.MPA(a * float64(i) / 16)
			if m > prev+1e-9 {
				bad("mpa/monotone", "feature %s: MPA rises to %.9g at S=%.3g", f.Name, m, a*float64(i)/16)
				break
			}
			prev = m
		}
	}
	return out
}

// checkGroup verifies Eq. 1 for one co-run combination sharing an A-way
// cache.
func (c *Checker) checkGroup(ctx context.Context, node string, gi int, combo []*core.FeatureVector, a float64) []Violation {
	var out []Violation
	bad := func(invariant, format string, args ...any) {
		out = append(out, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf("node %s group %d: ", node, gi) + fmt.Sprintf(format, args...),
		})
	}
	preds, err := core.PredictGroupContext(ctx, combo, int(a), c.Solver)
	if err != nil {
		bad("eq1/solve", "equilibrium solve failed: %v", err)
		return out
	}
	tol := float64(c.tol() * a)
	sum, appetite := 0.0, 0.0
	for i, p := range preds {
		lim := math.Min(a, combo[i].GMax())
		if p.S <= 0 || p.S > lim+tol {
			bad("eq1/bounds", "process %d (%s): S=%.9g outside (0, %.9g]", i, combo[i].Name, p.S, lim)
		}
		sum += p.S
		appetite += combo[i].GMax()
		out = append(out, c.checkBundle(node, gi, combo[i], p.S, tol)...)
	}
	switch {
	case len(preds) == 1:
		if math.Abs(sum-math.Min(a, combo[0].GMax())) > tol {
			bad("eq1/solo", "solo S=%.9g, want min(A, GMax)=%.9g", sum, math.Min(a, combo[0].GMax()))
		}
	case appetite <= a:
		if math.Abs(sum-appetite) > tol {
			bad("eq1/uncontended", "ΣS=%.9g, want ΣGMax=%.9g", sum, appetite)
		}
	default:
		if math.Abs(sum-a) > tol {
			bad("eq1/capacity", "ΣS=%.9g, want A=%g", sum, a)
		}
	}
	return out
}

// checkBundle verifies the thread-group contract for one resident whose
// name parses as a bundle (internal/threads); legacy residents pass
// through untouched. Three laws:
//
//   - The feature's Members width matches the local member count encoded
//     in the bundle name (otherwise per-group Eq. 1 terms are weighted
//     wrong).
//   - The coherence term is exactly zero when every sharer shares one
//     cache (remote = 0).
//   - Σ member occupancy = group occupancy: splitting the bundle's
//     solved Eq. 1 size S into the merged shared footprint plus the
//     per-member private footprints reconstructs S.
func (c *Checker) checkBundle(node string, gi int, f *core.FeatureVector, s, tol float64) []Violation {
	g, local, remote, ok := threads.ParseBundleName(f.Name)
	if !ok {
		return nil
	}
	var out []Violation
	bad := func(invariant, format string, args ...any) {
		out = append(out, Violation{
			Invariant: invariant,
			Detail:    fmt.Sprintf("node %s group %d bundle %s: ", node, gi, f.Name) + fmt.Sprintf(format, args...),
		})
	}
	if f.Members != local && !(local == 1 && f.Members <= 1) {
		bad("group/members", "feature Members=%d, name encodes local=%d", f.Members, local)
	}
	if remote == 0 {
		if coh := threads.Coherence(g.SharedFrac, g.WriteFrac, remote, g.Threads); coh != 0 {
			bad("group/coherence-colocated", "co-located sharers pay coherence %v, want 0", coh)
		}
	}
	shared, private := threads.SplitOccupancy(s, local, g.SharedFrac)
	got := shared
	for _, p := range private {
		if p < -tol {
			bad("group/occupancy-split", "negative private footprint %v", p)
		}
		got += p
	}
	if math.Abs(got-s) > tol {
		bad("group/occupancy-split", "shared %v + Σprivate = %v, want group S=%v", shared, got, s)
	}
	return out
}

// Terms counts the fleet-wide Eq. 10 expectation terms: one per resident.
// Migration moves terms between machines but never creates or destroys
// one, so this count is the fixedness invariant rebalance tests assert.
func Terms(ins []fleet.NodeInspection) int {
	n := 0
	for _, ni := range ins {
		n += len(ni.Residents)
	}
	return n
}

// Combinations returns one node's total Eq. 10 combination count across
// its cache groups (0 when idle).
func Combinations(ni fleet.NodeInspection) int {
	asg := ni.Assignment()
	total := 0
	for _, group := range ni.Machine.Groups {
		prod, busy := 1, false
		for _, cix := range group {
			if len(asg[cix]) > 0 {
				busy = true
				prod *= len(asg[cix])
			}
		}
		if busy {
			total += prod
		}
	}
	return total
}
