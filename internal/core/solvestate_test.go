package core

import (
	"context"
	"math"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// bitsEqual reports exact bit equality of two floats (NaN-safe, unlike ==).
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSamePreds asserts two prediction slices are bit-identical in
// every float field.
func requireSamePreds(t *testing.T, label string, cold, warm []Prediction) {
	t.Helper()
	if len(cold) != len(warm) {
		t.Fatalf("%s: %d vs %d predictions", label, len(cold), len(warm))
	}
	for i := range cold {
		if !bitsEqual(cold[i].S, warm[i].S) || !bitsEqual(cold[i].MPA, warm[i].MPA) || !bitsEqual(cold[i].SPI, warm[i].SPI) {
			t.Fatalf("%s: prediction %d differs: cold {S:%x MPA:%x SPI:%x} warm {S:%x MPA:%x SPI:%x}",
				label, i,
				math.Float64bits(cold[i].S), math.Float64bits(cold[i].MPA), math.Float64bits(cold[i].SPI),
				math.Float64bits(warm[i].S), math.Float64bits(warm[i].MPA), math.Float64bits(warm[i].SPI))
		}
	}
}

// TestSolverStateReplayBitIdentical: a seeded re-solve of the identical
// group must return the same bytes the cold solve did, for every method.
func TestSolverStateReplayBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, method := range []SolverMethod{SolverAuto, SolverNewton, SolverWindow} {
		for seed := uint64(1); seed <= 20; seed++ {
			features := randomGroup(seed, 12, 3)
			cold, coldErr := PredictGroupContext(ctx, features, 12, method)

			st := NewSolverState(0)
			first, err1 := PredictGroupCached(ctx, features, 12, method, st)
			second, err2 := PredictGroupCached(ctx, features, 12, method, st)
			if (coldErr == nil) != (err1 == nil) || (coldErr == nil) != (err2 == nil) {
				t.Fatalf("method %d seed %d: error mismatch cold=%v first=%v second=%v", method, seed, coldErr, err1, err2)
			}
			if coldErr != nil {
				continue // Newton may stall; nothing to compare
			}
			requireSamePreds(t, "first (populating) solve", cold, first)
			requireSamePreds(t, "second (seeded) solve", cold, second)
		}
	}
}

// contendedRandomGroup scans seeds for a group whose combined appetite exceeds
// the cache — only contended groups reach the solvers (and the state).
func contendedRandomGroup(t *testing.T, seedStart uint64, assoc, k int) []*FeatureVector {
	t.Helper()
	for seed := seedStart; seed < seedStart+100; seed++ {
		fs := randomGroup(seed, assoc, k)
		total := 0.0
		for _, f := range fs {
			total += f.GMax()
		}
		if total > float64(assoc) {
			return fs
		}
	}
	t.Fatal("no contended group in 100 seeds")
	return nil
}

// TestSolverStateHitMissAccounting: the contended path records one miss
// then hits on every repeat; solo and uncontended groups never consult
// the state.
func TestSolverStateHitMissAccounting(t *testing.T) {
	ctx := context.Background()
	st := NewSolverState(0)
	features := contendedRandomGroup(t, 3, 8, 3)

	for i := 0; i < 4; i++ {
		if _, err := PredictGroupCached(ctx, features, 8, SolverWindow, st); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.Misses != 1 || s.Hits != 3 || s.Rejected != 0 {
		t.Fatalf("contended stats = %+v, want 1 miss / 3 hits / 0 rejected", s)
	}

	// Solo groups take the closed-form path and must not touch the state.
	if _, err := PredictGroupCached(ctx, features[:1], 8, SolverWindow, st); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Misses != s.Misses || got.Hits != s.Hits {
		t.Fatalf("solo solve consulted the state: %+v", got)
	}
}

// TestSolverStateRejectsDivergedSeed: a recorded solution that violates
// the Eq. 1 invariants must be discarded, counted, and replaced by the
// cold solve's (correct) result.
func TestSolverStateRejectsDivergedSeed(t *testing.T) {
	ctx := context.Background()
	features := contendedRandomGroup(t, 5, 10, 3)
	cold, err := PredictGroupContext(ctx, features, 10, SolverWindow)
	if err != nil {
		t.Fatal(err)
	}

	poisons := map[string][]float64{
		"wrong arity":   {1, 2},
		"NaN share":     {math.NaN(), 4, 5},
		"negative":      {-1, 6, 5},
		"over capacity": {20, 4, 5},
		"bad sum":       {1, 1, 1},
	}
	for label, bad := range poisons {
		st := NewSolverState(0)
		st.record(st.appendKey(nil, features, 10, SolverWindow), bad)
		got, err := PredictGroupCached(ctx, features, 10, SolverWindow, st)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSamePreds(t, label, cold, got)
		s := st.Stats()
		if s.Rejected != 1 {
			t.Fatalf("%s: rejected = %d, want 1", label, s.Rejected)
		}
		// The poisoned entry must be gone, replaced by the cold result.
		if _, err := PredictGroupCached(ctx, features, 10, SolverWindow, st); err != nil {
			t.Fatal(err)
		}
		if s = st.Stats(); s.Hits != 1 {
			t.Fatalf("%s: post-reject stats %+v, want the replacement entry hit once", label, s)
		}
	}
}

// TestSolverStateFlushAndEviction: Flush empties the state, and a
// capacity-1 state keeps only the most recent group — with results still
// bit-identical throughout.
func TestSolverStateFlushAndEviction(t *testing.T) {
	ctx := context.Background()
	g1 := contendedRandomGroup(t, 7, 8, 3)
	g2 := contendedRandomGroup(t, 300, 8, 3)

	st := NewSolverState(1)
	cold1, err := PredictGroupCached(ctx, g1, 8, SolverWindow, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PredictGroupCached(ctx, g2, 8, SolverWindow, st); err != nil {
		t.Fatal(err)
	}
	// g1 was evicted by g2; re-solving must miss, then still match cold.
	again, err := PredictGroupCached(ctx, g1, 8, SolverWindow, st)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePreds(t, "post-eviction re-solve", cold1, again)
	if s := st.Stats(); s.Misses != 3 || s.Entries != 1 {
		t.Fatalf("capacity-1 stats = %+v, want 3 misses and 1 entry", s)
	}

	st.Flush()
	if s := st.Stats(); s.Entries != 0 {
		t.Fatalf("entries after Flush = %d", s.Entries)
	}
	if _, err := PredictGroupCached(ctx, g1, 8, SolverWindow, st); err != nil {
		t.Fatal(err)
	}
}

// TestSolverStateDistinguishesIdentity: equal-shaped groups built from
// distinct FeatureVector instances must not share entries (keys are
// pointer identities, the guard against cross-machine-kind collisions).
func TestSolverStateDistinguishesIdentity(t *testing.T) {
	ctx := context.Background()
	st := NewSolverState(0)
	a := contendedRandomGroup(t, 11, 8, 3)
	b := contendedRandomGroup(t, 11, 8, 3) // same seeds: bit-identical curves, new pointers
	if _, err := PredictGroupCached(ctx, a, 8, SolverWindow, st); err != nil {
		t.Fatal(err)
	}
	if _, err := PredictGroupCached(ctx, b, 8, SolverWindow, st); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("identical-content distinct-identity groups shared an entry: %+v", s)
	}
	// Method and associativity segregate entries too (Newton may stall on
	// this group; either way it must not hit the window entry).
	if _, err := PredictGroupCached(ctx, a, 7, SolverWindow, st); err != nil {
		t.Fatal(err)
	}
	_, _ = PredictGroupCached(ctx, a, 8, SolverNewton, st)
	if s := st.Stats(); s.Hits != 0 {
		t.Fatalf("method/assoc variation hit a foreign entry: %+v", s)
	}
}

// TestSolverStateHitAllocs: a solver-state seed hit builds its key in the
// caller's workspace and probes without a string, so it allocates nothing.
func TestSolverStateHitAllocs(t *testing.T) {
	m := machine.FourCoreServer()
	ctx := context.Background()
	st := NewSolverState(0)

	pair := []*FeatureVector{TruthFeature(workload.ByName("mcf"), m), TruthFeature(workload.ByName("art"), m)}
	ws := getWorkspace()
	defer putWorkspace(ws)
	dst, err := predictInto(ctx, nil, pair, m.Assoc, SolverAuto, st, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	n := testing.AllocsPerRun(100, func() {
		if _, err := predictInto(ctx, dst, pair, m.Assoc, SolverAuto, st, nil, ws); err != nil {
			t.Fatal(err)
		}
	})
	if s := st.Stats(); s.Hits == before.Hits || s.Misses != before.Misses {
		t.Fatalf("solver state %+v → %+v: the pin needs seed hits only", before, s)
	}
	if n != 0 {
		t.Errorf("a solver-state seed hit allocates %v objects, want 0", n)
	}
}
