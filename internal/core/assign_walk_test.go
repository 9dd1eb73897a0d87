package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mpmc/internal/machine"
)

// canonicalChoice is the filter the cores^k loop applied before the search
// enumerated canonical mappings directly, kept as the oracle of that
// enumeration and of referenceBestAssignment. It suppresses assignments equivalent under permuting cores
// within a cache group (the model is symmetric in them): it keeps only the
// representative where, within each group, cores are "used" in order and
// the first process index on each used core increases. scratch must be at
// least as long as the largest group.
func canonicalChoice(choice []int, groups [][]int, scratch []int) bool {
	for _, g := range groups {
		// first[i] = index of the first process assigned to g[i], or -1.
		first := scratch[:len(g)]
		for i := range first {
			first[i] = -1
		}
		for pi, c := range choice {
			for i, gc := range g {
				if gc == c && first[i] < 0 {
					first[i] = pi
				}
			}
		}
		// Cores inside a group must be used in increasing first-process
		// order, with unused cores trailing.
		prev := -1
		seenEmpty := false
		for _, f := range first {
			if f < 0 {
				seenEmpty = true
				continue
			}
			if seenEmpty || f < prev {
				return false
			}
			prev = f
		}
	}
	return true
}

// shapedMachine is the four-core server with its cores regrouped: one cache
// group per entry of sizes, cores numbered in group order.
func shapedMachine(sizes ...int) *machine.Machine {
	m := machine.FourCoreServer()
	m.Name = fmt.Sprint("shape", sizes)
	m.NumCores, m.Groups = 0, nil
	for _, size := range sizes {
		g := make([]int, size)
		for j := range g {
			g[j] = m.NumCores
			m.NumCores++
		}
		m.Groups = append(m.Groups, g)
	}
	return m
}

// interleavedMachine shares caches between non-adjacent cores, listed out
// of numerical order in the second group.
func interleavedMachine() *machine.Machine {
	m := machine.FourCoreServer()
	m.Name = "interleaved"
	m.Groups = [][]int{{0, 2}, {3, 1}}
	return m
}

// walkedAsFiltered fails unless canonicalMappings(k processes on m) is, in
// ascending order, exactly the mapping indices canonicalChoice accepts.
func walkedAsFiltered(t *testing.T, m *machine.Machine, k int) {
	t.Helper()
	n := m.NumCores
	total, err := SearchSpace(n, k)
	if err != nil {
		t.Fatalf("%s k=%d: %v", m.Name, k, err)
	}
	got := canonicalMappings(m.Groups, n, k, total)
	choice, scratch := make([]int, k), make([]int, n)
	next := 0
	for idx := 0; idx < total; idx++ {
		decodeChoice(choice, idx, n)
		if !canonicalChoice(choice, m.Groups, scratch) {
			continue
		}
		if next == len(got) || got[next] != idx {
			t.Fatalf("%s k=%d: canonical mapping %d %v is not entry %d of the walk", m.Name, k, idx, choice, next)
		}
		next++
	}
	if next != len(got) {
		t.Fatalf("%s k=%d: the walk emits %d mappings, the filter accepts %d", m.Name, k, len(got), next)
	}
}

// TestCanonicalWalkMatchesFilter: the direct enumeration yields the set the
// cores^k loop kept, in the order it kept it, on every group shape.
func TestCanonicalWalkMatchesFilter(t *testing.T) {
	machines := []*machine.Machine{
		shapedMachine(2, 2), shapedMachine(4), shapedMachine(1, 3), shapedMachine(2, 1, 1),
		shapedMachine(3, 2, 1), shapedMachine(1), interleavedMachine(),
	}
	for _, preset := range searchPresets {
		machines = append(machines, preset())
	}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 7; k++ {
			walkedAsFiltered(t, m, k)
		}
	}
	// 1056 of the server's 4096 six-process mappings, as the work pin says.
	m := machine.FourCoreServer()
	if got := len(canonicalMappings(m.Groups, 4, 6, 4096)); got != 1056 {
		t.Fatalf("%d canonical mappings of 6 processes on the server, want 1056", got)
	}
}

// FuzzCanonicalWalkMatchesFilter draws the group shape from the fuzzer:
// each byte of shape is one group's size (1–4), and the core numbers are
// rotated so groups are not contiguous runs from 0.
func FuzzCanonicalWalkMatchesFilter(f *testing.F) {
	f.Add([]byte{1, 1}, 4, 0)
	f.Add([]byte{0}, 9, 0)
	f.Add([]byte{3, 0, 0}, 5, 2)
	f.Add([]byte{2, 1, 0}, 6, 5)
	f.Add([]byte{1, 2, 3}, 3, 1)
	f.Fuzz(func(t *testing.T, shape []byte, kRaw, rotate int) {
		if len(shape) == 0 || len(shape) > 4 {
			t.Skip()
		}
		sizes := make([]int, len(shape))
		for i, b := range shape {
			sizes[i] = 1 + int(b%4)
		}
		m := shapedMachine(sizes...)
		for _, g := range m.Groups {
			for j := range g {
				g[j] = (g[j] + int(uint(rotate)%uint(m.NumCores))) % m.NumCores
			}
		}
		k := 1 + int(uint(kRaw)%7)
		if _, err := SearchSpace(m.NumCores, k); err != nil {
			t.Skip()
		}
		walkedAsFiltered(t, m, k)
	})
}

// TestLayoutKeyFormsAgree: wherever a layout packs, the packed and the wide
// key draw the same distinctions — two candidates share one exactly when
// they share the other.
func TestLayoutKeyFormsAgree(t *testing.T) {
	for _, m := range []*machine.Machine{shapedMachine(2, 2), shapedMachine(4), shapedMachine(3, 2, 1), interleavedMachine()} {
		n, k := m.NumCores, 6
		groupOf, posOf := make([]int, n), make([]int, n)
		for gi, g := range m.Groups {
			for j, c := range g {
				groupOf[c], posOf[c] = gi, j
			}
		}
		total, _ := SearchSpace(n, k)
		choice, layout := make([]int, k), make([]uint64, len(m.Groups))
		for gi := range m.Groups {
			wideOf, packedOf := map[uint64]string{}, map[string]uint64{}
			for _, idx := range canonicalMappings(m.Groups, n, k, total) {
				decodeChoice(choice, idx, n)
				packLayouts(layout, choice, groupOf, posOf)
				wide := string(wideLayoutKey(nil, choice, groupOf, posOf, gi))
				if w, ok := wideOf[layout[gi]]; ok && w != wide {
					t.Fatalf("%s group %d: packed key %#x stands for two layouts", m.Name, gi, layout[gi])
				}
				if p, ok := packedOf[wide]; ok && p != layout[gi] {
					t.Fatalf("%s group %d: one layout has packed keys %#x and %#x", m.Name, gi, p, layout[gi])
				}
				wideOf[layout[gi]], packedOf[wide] = wide, layout[gi]
			}
		}
	}
}

// TestBestAssignmentWideLayouts runs the search where a layout cannot pack
// — 13 cores × 5 processes is 65 bits — against the per-assignment loop:
// alone, and beside a small group that still packs.
func TestBestAssignmentWideLayouts(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	machines := []*machine.Machine{shapedMachine(13)}
	if !testing.Short() {
		machines = append(machines, shapedMachine(2, 13), shapedMachine(13, 2))
	}
	ctx := context.Background()
	for _, m := range machines {
		feats := suiteFeatures(m)
		procs := []*FeatureVector{feats[0], feats[3], feats[5], feats[3], feats[7]}
		want, err := referenceBestAssignment(ctx, NewCombinedModel(m, pm), procs, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewCombinedModel(m, pm).BestAssignmentContext(ctx, procs, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, m.Name, got, want)
	}
	// One core, more processes than a mask has bits: a single assignment.
	m := shapedMachine(1)
	procs := make([]*FeatureVector, 70)
	for i := range procs {
		procs[i] = suiteFeatures(m)[i%3]
	}
	want, err := referenceBestAssignment(ctx, NewCombinedModel(m, pm), procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCombinedModel(m, pm).BestAssignmentContext(ctx, procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, m.Name, got, want)
}

// TestSearchTableTooWide: a combination whose ids do not pack is solved
// without the table and estimates to the same bits.
func TestSearchTableTooWide(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.FourCoreServer()
	cm := NewCombinedModel(m, pm)
	feats := suiteFeatures(m)
	asg := Assignment{{feats[0], feats[1]}, {feats[2]}, nil, nil}
	tab := &searchTable{ids: [][]uint64{{1, 2}, {3}, nil, nil}, width: 33, powers: map[uint64][]float64{}}
	ctx := context.Background()
	ws := new(workspace)
	got, err := cm.estimateGroup(ctx, asg, m.Groups[0], solveEnv{search: tab, ws: ws}, ReadWatts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cm.estimateGroup(ctx, asg, m.Groups[0], solveEnv{ws: ws}, ReadWatts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Watts) != math.Float64bits(want.Watts) || len(tab.powers) != 0 {
		t.Fatalf("%v W with %d table entries, want %v W and none", got.Watts, len(tab.powers), want.Watts)
	}
	tab.width = 2
	if got, err = cm.estimateGroup(ctx, asg, m.Groups[0], solveEnv{search: tab, ws: ws}, ReadWatts, nil); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Watts) != math.Float64bits(want.Watts) || len(tab.powers) != 2 {
		t.Fatalf("%v W with %d table entries, want %v W and 2", got.Watts, len(tab.powers), want.Watts)
	}
}
