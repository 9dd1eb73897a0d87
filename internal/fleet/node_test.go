package fleet

import (
	"context"
	"slices"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/workload"
)

// TestHeldAssignmentKeepsItsView: an assignment taken from a node stays
// the view from before every later mutation — arrivals into a core with
// spare capacity, tail and middle departures, and a rolled-back
// transaction. Detached scorers read captured assignments outside the
// lock, so a mutation that wrote into a shown element would corrupt a
// score (and the memo entry made from it).
func TestHeldAssignmentKeepsItsView(t *testing.T) {
	ctx := context.Background()
	f := testFleet(t, LeastDegradation, func(c *Config) { c.Nodes = c.Nodes[:1]; c.Nodes[0].MaxPerCore = 0 })
	n := f.nodes[0]
	type held struct {
		asg  core.Assignment
		want [][]*core.FeatureVector
	}
	var views []held
	capture := func() {
		asg := f.assignmentOf(n)
		want := make([][]*core.FeatureVector, len(asg))
		for c, procs := range asg {
			want[c] = slices.Clone(procs)
		}
		views = append(views, held{asg, want})
	}
	check := func(step string) {
		t.Helper()
		for i, v := range views {
			for c := range v.want {
				if !slices.Equal(v.asg[c], v.want[c]) {
					t.Fatalf("after %s: view %d core %d changed", step, i, c)
				}
			}
		}
		capture()
	}
	place := func(name string) string {
		t.Helper()
		got, _, err := f.placeAtLocked(ctx, n, workload.ByName(name), 0, PlaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	remove := func(name string) {
		t.Helper()
		if _, err := n.remove(name); err != nil {
			t.Fatal(err)
		}
	}
	capture()
	var names []string
	for _, w := range []string{"mcf", "art", "gzip", "swim", "vpr"} {
		names = append(names, place(w))
		check("placing " + w) // core 0 grows by append, in place once it has spare capacity
	}
	remove(names[4])
	check("a tail departure")
	place("equake")
	check("an arrival after a tail departure")
	remove(names[1])
	check("a middle departure")
	place("twolf") // a fresh array with spare capacity for the transaction to append into
	check("an arrival after a middle departure")
	tx := f.beginLocked()
	f.touchLocked(n)
	place("applu")
	check("an arrival inside a transaction")
	tx.rollback()
	check("the rollback")
	place("ammp")
	check("an arrival after the rollback")
}
