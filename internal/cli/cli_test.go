package cli

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

func TestMachineByName(t *testing.T) {
	for name, cores := range map[string]int{"server": 4, "workstation": 2, "laptop": 2} {
		m, err := MachineByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.NumCores != cores {
			t.Fatalf("%s has %d cores, want %d", name, m.NumCores, cores)
		}
	}
	if _, err := MachineByName("mainframe"); err == nil {
		t.Fatal("accepted unknown machine")
	}
}

func TestSolverByName(t *testing.T) {
	cases := map[string]core.SolverMethod{
		"auto": core.SolverAuto, "newton": core.SolverNewton, "window": core.SolverWindow,
	}
	for name, want := range cases {
		got, err := SolverByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s resolved to %v", name, got)
		}
	}
	if _, err := SolverByName("magic"); err == nil {
		t.Fatal("accepted unknown solver")
	}
}

func TestParseBenches(t *testing.T) {
	specs, err := ParseBenches("mcf, art ,gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Name != "mcf" || specs[2].Name != "gzip" {
		t.Fatalf("parsed %v", specs)
	}
	if _, err := ParseBenches("mcf,notabench"); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
	if _, err := ParseBenches(" , "); err == nil {
		t.Fatal("accepted empty list")
	}
}

func TestPolicyByName(t *testing.T) {
	cases := map[string]manager.Policy{
		"power-aware": manager.PowerAware, "least-loaded": manager.LeastLoaded,
	}
	for name, want := range cases {
		got, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s resolved to %v", name, got)
		}
	}
	for _, name := range []string{"chaotic", "round-robin"} {
		if _, err := PolicyByName(name); err == nil {
			t.Fatalf("accepted unknown policy %q", name)
		}
	}
}

func TestFeatureConfigProfileOptions(t *testing.T) {
	fc := FeatureConfig{Seed: 7, Quick: true, Workers: 3}
	o := fc.ProfileOptions("mcf")
	if o.Seed != core.ProfileSeed(7, "mcf") {
		t.Fatalf("seed %d not name-derived", o.Seed)
	}
	if o.Warmup != 1.5 || o.Duration != 3 || o.Workers != 3 {
		t.Fatalf("quick options wrong: %+v", o)
	}
	// Seeds depend on the name, not list position, so request order can
	// never change a profile.
	if fc.ProfileOptions("mcf").Seed == fc.ProfileOptions("art").Seed {
		t.Fatal("different benchmarks share a profiling seed")
	}
	slow := FeatureConfig{Seed: 7}
	if o := slow.ProfileOptions("mcf"); o.Warmup != 0 || o.Duration != 0 {
		t.Fatalf("non-quick config set durations: %+v", o)
	}
}

func TestBuildFeatureTruthAndLoad(t *testing.T) {
	m := machine.TwoCoreWorkstation()
	spec := workload.ByName("mcf")

	// Truth path: analytic oracle, no profiling run.
	f, err := FeatureConfig{Truth: true}.BuildFeature(context.Background(), m, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := core.TruthFeature(spec, m)
	if f.Name != "mcf" || f.Alpha != want.Alpha || f.Beta != want.Beta {
		t.Fatalf("truth feature differs from oracle: %+v vs %+v", f, want)
	}

	// Load path: a saved vector short-circuits profiling.
	dir := t.TempDir()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mcf.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	fc := FeatureConfig{LoadDir: dir, Logf: func(format string, args ...any) {
		logged = append(logged, format)
	}}
	f2, err := fc.BuildFeature(context.Background(), m, spec)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Name != "mcf" || f2.API != want.API {
		t.Fatalf("loaded feature differs: %+v", f2)
	}
	if len(logged) != 1 || logged[0] != "loaded %s from %s" {
		t.Fatalf("expected one load log line, got %v", logged)
	}

	// A corrupt saved vector is an error, not a silent re-profile.
	if err := os.WriteFile(filepath.Join(dir, "art.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (FeatureConfig{LoadDir: dir}).BuildFeature(context.Background(), m, workload.ByName("art")); err == nil {
		t.Fatal("corrupt saved vector accepted")
	}
}

func TestTrainOptions(t *testing.T) {
	o := TrainOptions(3, true, 2)
	if o.Seed != 3 || o.Workers != 2 || o.Warmup != 1 || o.Duration != 3 || o.MicrobenchWindows != 6 {
		t.Fatalf("quick train options wrong: %+v", o)
	}
	if o := TrainOptions(3, false, 0); o.Warmup != 0 || o.MicrobenchWindows != 0 {
		t.Fatalf("full train options should defer to defaults: %+v", o)
	}
}
