// Poweraware: the paper's motivating application (Section 5).
//
// Four processes must be placed on the 4-core server (two dies, two cores
// per die sharing an L2). Different placements co-locate different cache
// competitors, so they consume different power. The combined model
// estimates every placement's power from profiling data alone; the best
// and worst picks are then verified on the simulated machine.
//
// Run with: go run ./examples/poweraware
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mpmc"
)

func main() {
	m := mpmc.FourCoreServer()
	names := []string{"mcf", "art", "gzip", "equake"}
	fmt.Printf("power-aware placement of %v on %s\n\n", names, m.Name)

	// Train the Eq. 9 power model (Section 4.1 pipeline).
	fmt.Println("training the MVLR power model...")
	pm, err := mpmc.TrainPowerModel(m, mpmc.ModelSet(), mpmc.PowerTrainOptions{
		Warmup: 1, Duration: 4, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  P_core = %.2f + %.3g·L1RPS + %.3g·L2RPS + %.3g·L2MPS + %.3g·BRPS + %.3g·FPPS\n",
		pm.PIdle(), pm.Coefficients()[0], pm.Coefficients()[1], pm.Coefficients()[2],
		pm.Coefficients()[3], pm.Coefficients()[4])

	// Profile the four processes (Section 3.4).
	var features []*mpmc.FeatureVector
	for i, n := range names {
		fmt.Printf("profiling %s...\n", n)
		f, err := mpmc.Profile(m, mpmc.WorkloadByName(n), mpmc.ProfileOptions{
			Warmup: 2, Duration: 4, Seed: uint64(100 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		features = append(features, f)
	}

	// Estimate every placement with the combined model.
	cm := mpmc.NewCombinedModel(m, pm)
	results, err := cm.BestAssignmentContext(context.Background(), features, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d distinct placements estimated (profiles only, no co-run measured):\n", len(results))
	for i, r := range []mpmc.AssignmentResult{results[0], results[len(results)-1]} {
		tag := "best "
		if i == 1 {
			tag = "worst"
		}
		fmt.Printf("  %s %6.2f W  %s\n", tag, r.Watts, describe(r.Assignment))
	}

	// Verify the extremes by simulation.
	fmt.Println("\nverifying by simulation:")
	for i, r := range []mpmc.AssignmentResult{results[0], results[len(results)-1]} {
		tag := "best "
		if i == 1 {
			tag = "worst"
		}
		procs := make([][]*mpmc.Workload, m.NumCores)
		for c, fs := range r.Assignment {
			for _, f := range fs {
				procs[c] = append(procs[c], mpmc.WorkloadByName(f.Name))
			}
		}
		run, err := mpmc.Run(m, mpmc.SimAssignment{Procs: procs},
			mpmc.SimOptions{Warmup: 3, Duration: 8, Seed: 500 + uint64(i)})
		if err != nil {
			log.Fatal(err)
		}
		meas := run.AvgMeasuredPower()
		fmt.Printf("  %s estimated %6.2f W, measured %6.2f W (err %+.2f%%)\n",
			tag, r.Watts, meas, 100*(r.Watts-meas)/meas)
	}
	// The lowest-power placement consolidates everything onto one core
	// (three cores idle), trading throughput away; among the spread
	// placements, power still varies with which processes share a die
	// because misses draw less power than hits (c3 < 0). The energy
	// metric weighs both sides of that trade.
	fmt.Println("\nenergy ranking (watts per 10⁹ predicted instructions):")
	for _, r := range []mpmc.AssignmentResult{results[0], results[len(results)-1]} {
		e, err := cm.EnergyEstimate(r.Assignment)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %6.2f W placement → %8.2f J/Ginstr\n", r.Watts, e)
	}
	fmt.Println("\nthe minimum-power placement idles three cores but runs 4× slower;")
	fmt.Println("per unit of work the spread placements win — the combined model")
	fmt.Println("lets a scheduler quantify both sides before committing.")
}

func describe(asg mpmc.ModelAssignment) string {
	var parts []string
	for c, fs := range asg {
		if len(fs) == 0 {
			parts = append(parts, fmt.Sprintf("core%d:idle", c))
			continue
		}
		var names []string
		for _, f := range fs {
			names = append(names, f.Name)
		}
		parts = append(parts, fmt.Sprintf("core%d:%s", c, strings.Join(names, "+")))
	}
	return strings.Join(parts, "  ")
}
