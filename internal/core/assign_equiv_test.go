package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// referenceBestAssignment is the search as it stood before the
// search-scoped table: every canonical assignment is built and handed to
// EstimateAssignmentContext on its own. It is the oracle the table is
// checked against, bit for bit.
func referenceBestAssignment(ctx context.Context, cm *CombinedModel, procs []*FeatureVector, maxResults int) ([]AssignmentResult, error) {
	n := cm.Machine.NumCores
	total := 1
	for range procs {
		total *= n
	}
	var results []AssignmentResult
	choice := make([]int, len(procs))
	for idx := 0; idx < total; idx++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		decodeChoice(choice, idx, n)
		if !canonicalChoice(choice, cm.Machine.Groups, make([]int, n)) {
			continue
		}
		asg := make(Assignment, n)
		for i, c := range choice {
			asg[c] = append(asg[c], procs[i])
		}
		watts, err := cm.EstimateAssignmentContext(ctx, asg)
		if err != nil {
			return nil, err
		}
		results = append(results, AssignmentResult{Assignment: asg, Watts: watts})
	}
	// Candidates are enumerated in ascending mapping index, so a stable
	// sort by watts is the ranking's (watts, index) order.
	sort.SliceStable(results, func(i, j int) bool { return results[i].Watts < results[j].Watts })
	if maxResults > 0 && len(results) > maxResults {
		results = results[:maxResults]
	}
	return results, nil
}

var searchPresets = []func() *machine.Machine{
	machine.FourCoreServer, machine.FourCoreLittle,
	machine.TwoCoreWorkstation, machine.TwoCoreLaptop,
}

// suiteFeatures returns the truth feature of every suite benchmark on m.
func suiteFeatures(m *machine.Machine) []*FeatureVector {
	var feats []*FeatureVector
	for _, spec := range workload.Suite() {
		feats = append(feats, TruthFeature(spec, m))
	}
	return feats
}

// sameResults fails unless got is want bit for bit: the same length, the
// same Watts bits and the same feature pointers on the same cores, in the
// same order.
func sameResults(t *testing.T, label string, got, want []AssignmentResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, reference has %d", label, len(got), len(want))
	}
	for r := range want {
		if math.Float64bits(got[r].Watts) != math.Float64bits(want[r].Watts) {
			t.Fatalf("%s: result %d is %v W, reference %v W", label, r, got[r].Watts, want[r].Watts)
		}
		if len(got[r].Assignment) != len(want[r].Assignment) {
			t.Fatalf("%s: result %d covers %d cores, reference %d", label, r, len(got[r].Assignment), len(want[r].Assignment))
		}
		for c := range want[r].Assignment {
			g, w := got[r].Assignment[c], want[r].Assignment[c]
			if len(g) != len(w) {
				t.Fatalf("%s: result %d core %d holds %d processes, reference %d", label, r, c, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("%s: result %d core %d slot %d is %s, reference %s", label, r, c, i, g[i].Name, w[i].Name)
				}
			}
		}
	}
}

// TestBestAssignmentMatchesReference sweeps machine presets × k × seeds and
// demands the table-backed search return exactly what the per-assignment
// loop returns, ties included. Benchmarks are drawn with replacement (and
// one is forced to repeat on every other seed), and the seeds cycle
// through the three solver methods with the solver state off and on.
func TestBestAssignmentMatchesReference(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	methods := []SolverMethod{SolverAuto, SolverNewton, SolverWindow}
	ctx := context.Background()
	for _, preset := range searchPresets {
		m := preset()
		feats := suiteFeatures(m)
		ties := 0
		for k := 1; k <= 6; k++ {
			for seed := 0; seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)*100 + int64(k)))
				procs := make([]*FeatureVector, k)
				for i := range procs {
					procs[i] = feats[rng.Intn(len(feats))]
				}
				if k > 1 && seed%2 == 1 {
					procs[k-1] = procs[rng.Intn(k-1)]
				}
				method, withState := methods[seed%3], seed/3%2 == 1
				newModel := func() *CombinedModel {
					cm := NewCombinedModel(m, pm)
					cm.Solver = method
					if withState {
						cm.State = NewSolverState(0)
					}
					return cm
				}
				label := fmt.Sprintf("%s k=%d seed=%d method=%d state=%v", m.Name, k, seed, method, withState)
				want, err := referenceBestAssignment(ctx, newModel(), procs, 0)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				cm := newModel()
				got, err := cm.BestAssignmentContext(ctx, procs, 0)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameResults(t, label, got, want)
				// A truncated ranking is a prefix of the full one, and a
				// second search on a warmed state changes nothing.
				for _, n := range []int{1, 2, 3, 7} {
					top, err := cm.BestAssignmentContext(ctx, procs, n)
					if err != nil {
						t.Fatalf("%s: top %d: %v", label, n, err)
					}
					sameResults(t, fmt.Sprintf("%s top %d", label, n), top, want[:min(n, len(want))])
				}
				for r := 1; r < len(want); r++ {
					if want[r].Watts == want[r-1].Watts {
						ties++
					}
				}
			}
		}
		// On the 2 × 2-core presets every assignment has a mirror image of
		// exactly its watts, so the tie rule is really exercised there.
		if len(m.Groups) == 2 && ties == 0 {
			t.Errorf("%s: no exact-watts tie in any ranking", m.Name)
		}
	}
}

// countingContext counts how often a search polls it and, given a trip
// count, reports cancellation from the poll after its trip-th onwards.
type countingContext struct {
	context.Context
	polls   atomic.Int64
	trip    int64  // polls answered nil before context.Canceled; 0 = never trips
	tripped func() // called as the first poll is refused, if set
}

func (c *countingContext) Err() error {
	if n := c.polls.Add(1); c.trip > 0 && n > c.trip {
		if n == c.trip+1 && c.tripped != nil {
			c.tripped()
		}
		return context.Canceled
	}
	return c.Context.Err()
}

// TestBestAssignmentSolvesEachCombinationOnce pins the work of one search.
// Six distinct processes on the four-core server make 4^6 = 4096 mappings,
// 1056 of them canonical, which the per-assignment loop answered with 5544
// PredictGroupCached calls. The table answers them with one call per
// ordered co-run combination: 6 solo and at most 25 pairs. (Process 0
// always sits on the first used core of its group, so 5 of the 30 ordered
// pairs never occur. The key is the ordered tuple, not the set, because
// Newton–Raphson takes its first process as the reference of Eq. 7 and is
// not bit-symmetric under a swap.) Contended solves are counted through
// the solver state; solo predictions never reach it.
func TestBestAssignmentSolvesEachCombinationOnce(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.FourCoreServer()
	procs := suiteFeatures(m)[:6]
	cm := NewCombinedModel(m, pm)
	cm.State = NewSolverState(0)
	ctx := &countingContext{Context: context.Background()}
	layouts := 0
	results, err := cm.bestAssignment(ctx, procs, 0, &layouts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1056 {
		t.Fatalf("%d canonical assignments, want 1056", len(results))
	}
	st := cm.State.Stats()
	if solves := st.Hits + st.Misses + st.Rejected; solves > 25 || st.Hits != 0 {
		t.Fatalf("%d contended solves (%d replayed from the state), want at most 25 and none twice", solves, st.Hits)
	}
	// The search visits every slot of its plan and estimates each one once,
	// and the assignments share them: fewer slots than assignments.
	total, err := SearchSpace(m.NumCores, len(procs))
	if err != nil {
		t.Fatal(err)
	}
	slots := planFor(m.Groups, m.NumCores, len(procs), total).nslots
	if layouts != slots {
		t.Fatalf("%d group layout estimates for %d distinct layouts, want each estimated once", layouts, slots)
	}
	if slots >= len(results) {
		t.Fatalf("%d group layouts for %d assignments: layouts are not shared", slots, len(results))
	}
	// The context is still polled once per candidate: the canonical
	// assignments, the only mappings the search visits.
	if polls := ctx.polls.Load(); polls < int64(len(results)) {
		t.Fatalf("context polled %d times over %d candidates", polls, len(results))
	}
}

// TestBestAssignmentSearchSpace pins the guard: cores^k above 2^20 is
// ErrSearchSpace for every k, including those where the product wraps.
func TestBestAssignmentSearchSpace(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		machine *machine.Machine
		k       int
	}{
		{machine.FourCoreServer(), 11}, {machine.FourCoreServer(), 31},
		{machine.FourCoreServer(), 32}, {machine.FourCoreServer(), 40},
		{machine.TwoCoreWorkstation(), 21}, {machine.TwoCoreWorkstation(), 64},
		{machine.TwoCoreWorkstation(), 100},
	} {
		f := suiteFeatures(tc.machine)[0]
		procs := make([]*FeatureVector, tc.k)
		for i := range procs {
			procs[i] = f
		}
		res, err := NewCombinedModel(tc.machine, pm).BestAssignmentContext(context.Background(), procs, 1)
		if !errors.Is(err, ErrSearchSpace) || res != nil {
			t.Fatalf("%s k=%d: %d results, err = %v, want ErrSearchSpace", tc.machine.Name, tc.k, len(res), err)
		}
	}
}

// TestBestAssignmentRejectsBadProcess: a nil or invalid feature is an
// error up front, as it was when every candidate was validated.
func TestBestAssignmentRejectsBadProcess(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.TwoCoreWorkstation()
	cm := NewCombinedModel(m, pm)
	good := suiteFeatures(m)[0]
	if _, err := cm.BestAssignmentContext(context.Background(), []*FeatureVector{good, nil}, 0); err == nil {
		t.Fatal("accepted a nil feature")
	}
	bad := *good
	bad.API = -1
	if _, err := cm.BestAssignmentContext(context.Background(), []*FeatureVector{good, &bad}, 0); err == nil {
		t.Fatal("accepted an invalid feature")
	}
}

// TestBestAssignmentAllocs pins what a warm search allocates: its returned
// result and nothing else, whatever the number of candidates it ranks.
func TestBestAssignmentAllocs(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*machine.Machine{machine.FourCoreServer(), machine.TwoCoreLaptop()} {
		cm := NewCombinedModel(m, pm)
		procs := suiteFeatures(m)[:6]
		if _, err := cm.BestAssignmentContext(context.Background(), procs, 1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := cm.BestAssignmentContext(context.Background(), procs, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 7 {
			t.Errorf("%s: a warm six-process search allocates %v objects, want at most 7", m.Name, allocs)
		}
	}
}

// TestBestAssignmentConcurrent runs searches of mixed shapes from eight
// goroutines at once, some cancelled part-way: every search that completes
// returns exactly what it returns alone, and the released scratch holds no
// feature vector.
func TestBestAssignmentConcurrent(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		cm         *CombinedModel
		procs      []*FeatureVector
		maxResults int
		trip       int64 // polls before the context cancels; 0 = never
	}
	var jobs []job
	for p, preset := range searchPresets {
		m := preset()
		cm := NewCombinedModel(m, pm)
		if p%2 == 1 {
			cm.State = NewSolverState(0)
		}
		feats := suiteFeatures(m)
		for k := 1; k <= 6; k++ {
			for r, maxResults := range []int{0, 1, 3} {
				rng := rand.New(rand.NewSource(int64(100*p + 10*k + r)))
				procs := make([]*FeatureVector, k)
				for i := range procs {
					procs[i] = feats[rng.Intn(len(feats))]
				}
				j := job{cm: cm, procs: procs, maxResults: maxResults}
				if k >= 3 && r == 1 {
					j.trip = int64(1 + rng.Intn(8))
				}
				jobs = append(jobs, j)
			}
		}
	}
	want := make([][]AssignmentResult, len(jobs))
	for i, j := range jobs {
		if j.trip > 0 {
			continue
		}
		if want[i], err = j.cm.BestAssignmentContext(context.Background(), j.procs, j.maxResults); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	const workers = 8
	got := make([][][]AssignmentResult, workers)
	errs := make([][]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w], errs[w] = make([][]AssignmentResult, len(jobs)*rounds), make([]error, len(jobs)*rounds)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range got[w] {
				i := (n*7 + w*13) % len(jobs)
				j := jobs[i]
				ctx := &countingContext{Context: context.Background(), trip: j.trip}
				got[w][n], errs[w][n] = j.cm.BestAssignmentContext(ctx, j.procs, j.maxResults)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for n, res := range got[w] {
			i := (n*7 + w*13) % len(jobs)
			label := fmt.Sprintf("worker %d search %d (job %d)", w, n, i)
			if jobs[i].trip > 0 {
				if !errors.Is(errs[w][n], context.Canceled) || res != nil {
					t.Fatalf("%s: %d results, err = %v, want context.Canceled", label, len(res), errs[w][n])
				}
				continue
			}
			if errs[w][n] != nil {
				t.Fatalf("%s: %v", label, errs[w][n])
			}
			sameResults(t, label, res, want[i])
		}
	}
	// Take every released scratch off the free list (a fresh one has no
	// lists), look for feature vectors, and put them back.
	var held []*searchScratch
	defer func() {
		for _, s := range held {
			searchScratches.Put(s)
		}
	}()
	for {
		s := searchScratches.Get()
		if cap(s.asg) == 0 {
			break
		}
		held = append(held, s)
		for c, list := range s.asg[:cap(s.asg)] {
			for _, f := range list[:cap(list)] {
				if f != nil {
					t.Fatalf("a released search scratch still holds %s on core %d", f.Name, c)
				}
			}
		}
	}
	if len(held) == 0 {
		t.Fatal("no search scratch was released")
	}
}
