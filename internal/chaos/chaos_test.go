package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestScriptFailsExactOccurrences(t *testing.T) {
	s := NewScript().Fail("fleet.score", "m0", 2, 4)
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, s.Intercept("fleet.score", "m0") != nil)
	}
	want := []bool{false, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: injected=%v, want %v", i+1, got[i], want[i])
		}
	}
	if s.Intercept("fleet.score", "m1") != nil {
		t.Fatal("unscripted key injected")
	}
	if s.Intercept("manager.place_at", "m0") != nil {
		t.Fatal("unscripted site injected")
	}
	if n := s.Log().Len(); n != 2 {
		t.Fatalf("log recorded %d injections, want 2", n)
	}
}

func TestScriptWildcardKey(t *testing.T) {
	s := NewScript().Fail("fleet.profile", "", 1)
	if s.Intercept("fleet.profile", "anything") == nil {
		t.Fatal("wildcard did not inject on first consult")
	}
	if s.Intercept("fleet.profile", "anything") != nil {
		t.Fatal("wildcard injected twice")
	}
}

func TestSeededIsReproducible(t *testing.T) {
	decide := func(seed uint64) []bool {
		s := NewSeeded(seed, 0.5)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, s.Intercept("site", fmt.Sprintf("k%d", i%4)) != nil)
		}
		return out
	}
	a, b := decide(42), decide(42)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical seeds", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.5 produced %d/%d injections", hits, len(a))
	}
	c := decide(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical decisions")
	}
}

func TestSeededZeroRateNeverInjects(t *testing.T) {
	s := NewSeeded(1, 0)
	for i := 0; i < 100; i++ {
		if s.Intercept("x", "y") != nil {
			t.Fatal("rate 0 injected")
		}
	}
}

func TestIsFault(t *testing.T) {
	f := &Fault{Site: "fleet.score", Key: "m0"}
	if !IsFault(f) {
		t.Fatal("bare fault not recognized")
	}
	if !IsFault(fmt.Errorf("wrapping: %w", f)) {
		t.Fatal("wrapped fault not recognized")
	}
	if IsFault(errors.New("organic")) {
		t.Fatal("organic error misclassified")
	}
	if IsFault(nil) {
		t.Fatal("nil misclassified")
	}
}

func TestCancelAfterCountsChecks(t *testing.T) {
	// The N-th Err call must observe cancellation, not before.
	for _, checks := range []int{1, 3, 10} {
		ctx, cancel := CancelAfter(context.Background(), checks)
		for i := 1; i < checks; i++ {
			if err := ctx.Err(); err != nil {
				t.Fatalf("checks=%d: cancelled at check %d: %v", checks, i, err)
			}
		}
		if ctx.Err() == nil {
			t.Fatalf("checks=%d: not cancelled at final check", checks)
		}
		if !errors.Is(ctx.Err(), context.Canceled) {
			t.Fatalf("checks=%d: %v, want Canceled", checks, ctx.Err())
		}
		cancel()
	}
}

func TestCancelAfterZeroIsImmediatelyCancelled(t *testing.T) {
	ctx, cancel := CancelAfter(context.Background(), 0)
	defer cancel()
	select {
	case <-ctx.Done():
	default:
		t.Fatal("checks=0 context not done")
	}
}
