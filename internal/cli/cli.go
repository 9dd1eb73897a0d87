// Package cli holds the request-building helpers shared by the command-line
// tools and the HTTP server: machine, solver, and policy selection,
// benchmark-list parsing, and feature-vector construction (profile, load
// from disk, or analytic oracle), with error messages that name the valid
// choices. Routing every front end through these helpers is what keeps the
// CLI and the service from drifting apart.
package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
)

// MachineByName maps the CLI machine names to presets.
func MachineByName(name string) (*machine.Machine, error) {
	switch name {
	case "server":
		return machine.FourCoreServer(), nil
	case "workstation":
		return machine.TwoCoreWorkstation(), nil
	case "laptop":
		return machine.TwoCoreLaptop(), nil
	case "little":
		return machine.FourCoreLittle(), nil
	}
	return nil, fmt.Errorf("unknown machine %q (want server, workstation, laptop, or little)", name)
}

// SolverByName maps CLI solver names to methods.
func SolverByName(name string) (core.SolverMethod, error) {
	switch name {
	case "auto":
		return core.SolverAuto, nil
	case "newton":
		return core.SolverNewton, nil
	case "window":
		return core.SolverWindow, nil
	}
	return 0, fmt.Errorf("unknown solver %q (want auto, newton, or window)", name)
}

// ParseBenches resolves a comma-separated benchmark list.
func ParseBenches(list string) ([]*workload.Spec, error) {
	var out []*workload.Spec
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s := workload.ByName(name)
		if s == nil {
			var known []string
			for _, w := range workload.Suite() {
				known = append(known, w.Name)
			}
			return nil, fmt.Errorf("unknown benchmark %q (want one of %s)", name, strings.Join(known, ", "))
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty benchmark list")
	}
	return out, nil
}

// PolicyByName maps CLI/server policy names to placement policies.
func PolicyByName(name string) (manager.Policy, error) {
	switch name {
	case "power-aware":
		return manager.PowerAware, nil
	case "least-loaded":
		return manager.LeastLoaded, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want power-aware or least-loaded)", name)
}

// FeatureConfig describes how feature vectors are obtained. The zero value
// profiles with full-length runs at seed 0 on one worker.
type FeatureConfig struct {
	// Seed is the base profiling seed; each workload's run seed is
	// core.ProfileSeed(Seed, name), so vectors never depend on request or
	// arrival order.
	Seed uint64
	// Quick selects the short profiling runs used by interactive tools and
	// the server's default (warmup 1.5 s, duration 3 s per sweep point).
	Quick bool
	// Workers bounds each profiling sweep's concurrency (<= 0 selects
	// GOMAXPROCS); results are bit-identical at any worker count.
	Workers int
	// Truth substitutes the analytic oracle features for profiling.
	Truth bool
	// LoadDir, when non-empty, is searched for saved <bench>.json feature
	// vectors before profiling (see profiler -json).
	LoadDir string
	// Logf, when non-nil, receives progress messages ("profiling mcf...").
	Logf func(format string, args ...any)
}

// ProfileOptions renders the config into core profiling options for one
// named workload.
func (c FeatureConfig) ProfileOptions(name string) core.ProfileOptions {
	o := core.ProfileOptions{Seed: core.ProfileSeed(c.Seed, name), Workers: c.Workers}
	if c.Quick {
		o.Warmup, o.Duration = 1.5, 3
	}
	return o
}

// BuildFeature obtains the feature vector for one workload per the config:
// oracle feature, saved vector from LoadDir, or a profiling run. ctx
// bounds the profiling sweep (the tools pass their signal context, so ^C
// abandons the sweep between runs).
func (c FeatureConfig) BuildFeature(ctx context.Context, m *machine.Machine, spec *workload.Spec) (*core.FeatureVector, error) {
	logf := c.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if c.Truth {
		return core.TruthFeature(spec, m), nil
	}
	if c.LoadDir != "" {
		path := filepath.Join(c.LoadDir, spec.Name+".json")
		if data, err := os.ReadFile(path); err == nil {
			var f core.FeatureVector
			if err := json.Unmarshal(data, &f); err != nil {
				return nil, fmt.Errorf("loading %s: %w", path, err)
			}
			logf("loaded %s from %s", spec.Name, path)
			return &f, nil
		}
	}
	logf("profiling %s...", spec.Name)
	return core.Profile(ctx, m, spec, c.ProfileOptions(spec.Name))
}

// BuildFeatures obtains feature vectors for every spec, in input order.
func (c FeatureConfig) BuildFeatures(ctx context.Context, m *machine.Machine, specs []*workload.Spec) ([]*core.FeatureVector, error) {
	out := make([]*core.FeatureVector, len(specs))
	for i, s := range specs {
		f, err := c.BuildFeature(ctx, m, s)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// TrainOptions builds power-model training options with the shared quick
// profile (warmup 1 s, duration 3 s, 6 microbenchmark windows).
func TrainOptions(seed uint64, quick bool, workers int) core.PowerTrainOptions {
	o := core.PowerTrainOptions{Seed: seed, Workers: workers}
	if quick {
		o.Warmup, o.Duration, o.MicrobenchWindows = 1, 3, 6
	}
	return o
}
