package manager

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// TestAdoptReinstatesRecoveredNames exercises the WAL-recovery adoption
// path directly: an instance comes back under its logbook name on its
// recorded core, the ID counter ratchets past the adopted suffix so new
// placements never collide, and admissibility is still enforced.
func TestAdoptReinstatesRecoveredNames(t *testing.T) {
	ctx := context.Background()
	m := machine.TwoCoreWorkstation()
	mgr := testManager(t, m, Options{MaxPerCore: 1})

	if err := mgr.Adopt(ctx, workload.ByName("mcf"), "mcf#7", 0); err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	res := mgr.Snapshot().res
	if len(res) != 1 || res[0].Name != "mcf#7" || res[0].Core != 0 {
		t.Fatalf("residents after adopt: %+v", res)
	}

	// Same name again, any core: the logbook never replays a duplicate.
	if err := mgr.Adopt(ctx, workload.ByName("mcf"), "mcf#7", 1); err == nil ||
		!strings.Contains(err.Error(), "already resident") {
		t.Fatalf("duplicate adopt err = %v", err)
	}
	// Core out of range and core at MaxPerCore both refuse.
	if err := mgr.Adopt(ctx, workload.ByName("gzip"), "gzip#1", 5); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range adopt err = %v", err)
	}
	if err := mgr.Adopt(ctx, workload.ByName("gzip"), "gzip#1", 0); !errors.Is(err, ErrMachineFull) {
		t.Fatalf("full-core adopt err = %v", err)
	}

	// The counter ratcheted to 7, so the next allocation is #8 — a fresh
	// placement can never collide with a recovered name.
	name, _, err := mgr.PlaceAt(ctx, workload.ByName("gzip"), 1)
	if err != nil {
		t.Fatalf("PlaceAt after adopt: %v", err)
	}
	if name != "gzip#8" {
		t.Fatalf("post-adopt name = %q, want gzip#8", name)
	}
}
