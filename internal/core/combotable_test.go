package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"mpmc/internal/machine"
)

// randomAssignment puts 0–2 processes of feats on every core of m.
func randomAssignment(r *rand.Rand, m *machine.Machine, feats []*FeatureVector) Assignment {
	asg := make(Assignment, m.NumCores)
	for c := range asg {
		for k := r.Intn(3); k > 0; k-- {
			asg[c] = append(asg[c], feats[r.Intn(len(feats))])
		}
	}
	return asg
}

// TestComboTableMatchesSolves: estimates answered through one table that
// lives across 200 assignments of every preset — each pass meeting what the
// earlier ones solved — are the table-less estimates bit for bit: watts,
// SPI terms, additions and bare predictions.
func TestComboTableMatchesSolves(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range []*machine.Machine{
		machine.FourCoreServer(), machine.TwoCoreWorkstation(), machine.TwoCoreLaptop(), machine.FourCoreLittle(),
	} {
		cm := NewCombinedModel(m, pm)
		feats := suiteFeatures(m)
		tab := NewComboTable()
		r := rand.New(rand.NewSource(1))
		var spi []float64
		for i := 0; i < 200; i++ {
			asg := randomAssignment(r, m, feats)
			got, gerr := tab.EstimateAssignment(ctx, cm, asg)
			want, werr := cm.EstimateAssignmentContext(ctx, asg)
			if gerr != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s #%d: watts %v (%v) through the table, %v (%v) without", m.Name, i, got, gerr, want, werr)
			}
			k, c := feats[r.Intn(len(feats))], r.Intn(m.NumCores)
			got, gerr = tab.EstimateAddition(ctx, cm, asg, k, c)
			want, werr = cm.EstimateAdditionContext(ctx, asg, k, c)
			if gerr != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s #%d: addition %v (%v) through the table, %v (%v) without", m.Name, i, got, gerr, want, werr)
			}
			for gi := range m.Groups {
				g, gerr := tab.EstimateGroup(ctx, cm, asg, gi, ReadWatts|ReadSPI, spi)
				w, werr := cm.EstimateGroupContext(ctx, asg, gi, ReadWatts|ReadSPI)
				if gerr != nil || werr != nil || !sameGroupEstimate(g, w) {
					t.Fatalf("%s #%d group %d: %+v (%v) through the table, %+v (%v) without", m.Name, i, gi, g, gerr, w, werr)
				}
				spi = g.SPI
			}
			group := []*FeatureVector{feats[r.Intn(len(feats))], feats[r.Intn(len(feats))], feats[r.Intn(len(feats))]}
			gp, gerr := tab.PredictGroup(ctx, nil, group, m.Assoc, SolverAuto, nil)
			wp, werr := PredictGroup(group, m.Assoc, SolverAuto)
			if gerr != nil || werr != nil || !samePredictions(gp, wp) {
				t.Fatalf("%s #%d: predictions %+v (%v) through the table, %+v (%v) without", m.Name, i, gp, gerr, wp, werr)
			}
		}
		if tab.Len() == 0 || tab.Solves() != uint64(tab.Len()) {
			t.Errorf("%s: %d entries from %d solves; every solve must land once", m.Name, tab.Len(), tab.Solves())
		}
		tab.Reset()
		if tab.Len() != 0 {
			t.Errorf("%s: Reset left %d entries", m.Name, tab.Len())
		}
	}
}

func sameGroupEstimate(a, b GroupEstimate) bool {
	if math.Float64bits(a.Watts) != math.Float64bits(b.Watts) || len(a.SPI) != len(b.SPI) {
		return false
	}
	for i := range a.SPI {
		if math.Float64bits(a.SPI[i]) != math.Float64bits(b.SPI[i]) {
			return false
		}
	}
	return true
}

func samePredictions(a, b []Prediction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Feature != b[i].Feature || math.Float64bits(a[i].S) != math.Float64bits(b[i].S) ||
			math.Float64bits(a[i].MPA) != math.Float64bits(b[i].MPA) || math.Float64bits(a[i].SPI) != math.Float64bits(b[i].SPI) {
			return false
		}
	}
	return true
}

// cancelAfter reports cancellation from its n-th Err call on.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestComboTableSkipsCancelled: a solve the context stops is not recorded,
// so the same table then answers the estimate as a table-less one does.
func TestComboTableSkipsCancelled(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.FourCoreServer()
	cm := NewCombinedModel(m, pm)
	feats := suiteFeatures(m)
	asg := Assignment{{feats[0], feats[3]}, {feats[1], feats[4]}, {feats[2]}, {feats[5]}}
	want, err := cm.EstimateAssignment(asg)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for cut := int64(0); ; cut++ {
		tab := NewComboTable()
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(cut)
		_, err := tab.EstimateAssignment(ctx, cm, asg)
		if err == nil {
			break // the estimate finishes inside cut checks
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cut %d: %v, want the cancellation", cut, err)
		}
		cancelled++
		if tab.Len() >= int(tab.Solves()) {
			t.Fatalf("cut %d: %d entries from %d solves: the cancelled one was recorded", cut, tab.Len(), tab.Solves())
		}
		got, err := tab.EstimateAssignment(context.Background(), cm, asg)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cut %d: %v (%v) after the cancel, want %v", cut, got, err, want)
		}
	}
	if cancelled < 10 {
		t.Fatalf("only %d cancellation points; the estimate does not solve enough to test", cancelled)
	}
}

// TestComboTableNil: a nil table is the table-less path.
func TestComboTableNil(t *testing.T) {
	var tab *ComboTable
	tab.Reset()
	if tab.Len() != 0 || tab.Solves() != 0 {
		t.Fatal("a nil table reports contents")
	}
	m := machine.TwoCoreWorkstation()
	feats := suiteFeatures(m)
	got, err := tab.PredictGroup(context.Background(), nil, feats[:2], m.Assoc, SolverAuto, nil)
	want, werr := PredictGroup(feats[:2], m.Assoc, SolverAuto)
	if err != nil || werr != nil || !samePredictions(got, want) {
		t.Fatalf("%+v (%v), want %+v (%v)", got, err, want, werr)
	}
}

// TestEstimateWorkspaceAllocs: with a warm workspace list and a warm table, a
// group pass and an addition estimate allocate nothing.
func TestEstimateWorkspaceAllocs(t *testing.T) {
	pm, err := SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.FourCoreServer()
	cm := NewCombinedModel(m, pm)
	feats := suiteFeatures(m)
	asg := Assignment{{feats[0], feats[3]}, {feats[1]}, {feats[2]}, {feats[5]}}
	tab := NewComboTable()
	ctx := context.Background()
	spi := make([]float64, 0, 8)
	n := testing.AllocsPerRun(100, func() {
		if _, err := tab.EstimateGroup(ctx, cm, asg, 0, ReadWatts|ReadSPI, spi); err != nil {
			t.Fatal(err)
		}
		if _, err := tab.EstimateAddition(ctx, cm, asg, feats[4], 2); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("a warm group pass and addition allocate %v objects, want 0", n)
	}
}
