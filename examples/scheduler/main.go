// Scheduler: the paper's run-time resource-management loop in action.
//
// Processes arrive one at a time. Each workload is profiled the first time
// it appears ("force it to run alone on an idle machine"), then every
// arrival is placed with the Figure 1 combined-model estimate by a fleet of
// one machine. After departures leave the layout stale, the Section 5
// search reports the best layout of the remaining processes against the
// current one (no process migrates). A least-loaded fleet handles the same
// arrival trace for comparison, and both final layouts are measured on the
// simulated machine.
//
// Run with: go run ./examples/scheduler
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"mpmc"
)

// maxPerCore caps time-sharing depth. Unconstrained power minimization
// would pile everything onto one core (idle cores are cheap); a throughput
// SLA caps it, so the real decision is WHICH processes share a die.
const maxPerCore = 2

func main() {
	ctx := context.Background()
	m := mpmc.FourCoreServer()
	fmt.Printf("runtime power-aware scheduling on %s\n\n", m.Name)

	fmt.Println("training the power model once (Section 4.1)...")
	pm, err := mpmc.TrainPowerModel(m, mpmc.ModelSet(), mpmc.PowerTrainOptions{
		Warmup: 1, Duration: 4, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	cm := mpmc.NewCombinedModel(m, pm)

	// Profiles are deterministic per workload, so both fleets share them.
	var mu sync.Mutex
	profiles := map[string]*mpmc.FeatureVector{}
	profile := func(ctx context.Context, m *mpmc.Machine, w *mpmc.Workload, opts mpmc.ProfileOptions) (*mpmc.FeatureVector, error) {
		mu.Lock()
		defer mu.Unlock()
		if f, ok := profiles[w.Name]; ok {
			return f, nil
		}
		opts.Warmup, opts.Duration = 2, 4
		f, err := mpmc.ProfileContext(ctx, m, w, opts)
		if err == nil {
			profiles[w.Name] = f
		}
		return f, err
	}

	arrivals := []string{"mcf", "gzip", "art", "vpr", "equake", "twolf"}
	run := func(policy mpmc.FleetPolicy) float64 {
		f, err := mpmc.NewFleet(mpmc.FleetConfig{
			Nodes:   []mpmc.FleetNode{{Name: "m0", Machine: m, Power: pm, MaxPerCore: maxPerCore}},
			Policy:  policy,
			Seed:    31,
			Profile: profile,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- %v placement ---\n", policy)
		var placed []string
		for _, name := range arrivals {
			p, err := f.Place(ctx, mpmc.WorkloadByName(name))
			if err != nil {
				log.Fatal(err)
			}
			placed = append(placed, p.Name)
			fmt.Printf("  %-8s → core %d   (estimated %6.2f W)\n", name, p.Core, p.Watts)
		}
		// Two departures leave the layout stale.
		for _, victim := range []string{placed[1], placed[3]} { // gzip, vpr exit
			if _, err := f.Remove(ctx, "m0", victim); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("  departures: %s, %s\n", placed[1], placed[3])
		residents := f.Inspect()[0].Residents
		_, est, err := f.Totals(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if policy == mpmc.LeastWatts {
			feats := make([]*mpmc.FeatureVector, len(residents))
			for i, r := range residents {
				feats[i] = r.Feature
			}
			ranked, err := cm.BestAssignmentContext(ctx, feats, 0)
			if err != nil {
				log.Fatal(err)
			}
			for _, r := range ranked {
				if admissible(r.Assignment) {
					fmt.Printf("  best layout of the %d residents: estimated %6.2f W against %6.2f W now (saving %.2f W; nothing migrates)\n",
						len(feats), r.Watts, est, est-r.Watts)
					break
				}
			}
		}
		// Measure the final layout.
		procs := make([][]*mpmc.Workload, m.NumCores)
		for _, r := range residents {
			procs[r.Core] = append(procs[r.Core], r.Spec)
		}
		runRes, err := mpmc.Run(m, mpmc.SimAssignment{Procs: procs},
			mpmc.SimOptions{Warmup: 2, Duration: 6, Seed: 88})
		if err != nil {
			log.Fatal(err)
		}
		meas := runRes.AvgMeasuredPower()
		fmt.Printf("  final layout: estimated %6.2f W, measured %6.2f W\n", est, meas)
		return meas
	}

	lw := run(mpmc.LeastWatts)
	ll := run(mpmc.Spread)
	fmt.Printf("\nleast-watts %6.2f W vs least-loaded %6.2f W (Δ %+.2f W)\n", lw, ll, lw-ll)
	fmt.Println("profiling ran once per distinct workload and is shared by both fleets.")
}

// admissible reports whether a layout keeps every core within maxPerCore.
func admissible(asg mpmc.ModelAssignment) bool {
	for _, procs := range asg {
		if len(procs) > maxPerCore {
			return false
		}
	}
	return true
}
