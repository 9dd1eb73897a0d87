package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/workload"
	"mpmc/internal/xrand"
)

// traceBenches are the workloads a recorded trace draws arrivals from.
var traceBenches = []string{"gzip", "vpr", "mcf", "bzip2", "twolf", "art", "equake", "ammp", "swim", "applu"}

// traceSteps is the length of one recorded trace.
const traceSteps = 40

// traceDigest drives seed's operation sequence through the server's
// single-machine placement path and hashes every outcome: per operation
// the instance names, cores, watt bit patterns and error class (the wire
// code, with "/rollback" appended when place_rollback_total counted the
// batch), then the machine estimate after it; at the end the resident
// sets. Half the steps place one to four arrivals as one batch, half
// remove a resident or, at the end of the draw, a name never placed.
func traceDigest(ctx context.Context, s *Server, seed uint64) (string, error) {
	rng := xrand.New(seed)
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	class := func(err error) string {
		if err == nil {
			return ""
		}
		return toAPIError(err).Code
	}
	var live []string
	for step := 0; step < traceSteps; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			n := 1
			if r >= 3 {
				n = 2 + rng.Intn(3)
			}
			specs := make([]*workload.Spec, n)
			for i := range specs {
				specs[i] = workload.ByName(traceBenches[rng.Intn(len(traceBenches))])
			}
			rollbacks := s.reg.CounterValue("place_rollback_total")
			placed, _, err := s.place(ctx, specs)
			c := class(err)
			if s.reg.CounterValue("place_rollback_total") != rollbacks {
				c += "/rollback"
			}
			if c != "" && c != "machine_full" && c != "machine_full/rollback" {
				return "", fmt.Errorf("step %d: %w", step, err)
			}
			str("place")
			str(c)
			for _, p := range placed {
				str(p.Name)
				word(uint64(p.Core))
				word(math.Float64bits(p.Watts))
				live = append(live, p.Name)
			}
		default:
			i := rng.Intn(len(live) + 1)
			name := "ghost#0"
			if i < len(live) {
				name = live[i]
			}
			_, err := s.one.Remove(ctx, machineNode, name)
			c := class(err)
			if c != "" && c != "unknown_process" {
				return "", fmt.Errorf("step %d: %w", step, err)
			}
			str("remove")
			str(name)
			str(c)
			if c == "" {
				live = slices.Delete(live, i, i+1)
			}
		}
		w, err := s.machineWatts(ctx)
		if err != nil {
			return "", fmt.Errorf("step %d: %w", step, err)
		}
		word(math.Float64bits(w))
	}
	st, err := s.one.State(ctx)
	if err != nil {
		return "", err
	}
	for c, cs := range st.Nodes[0].Cores {
		word(uint64(c))
		for _, n := range cs.Procs {
			str(n)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// TestPlaceDigests replays testdata/place_digests.json through the
// single-machine routes' one-node fleet: 50 seeded traces per policy,
// preset and MaxPerCore in {0, 2}. The digests were recorded from the
// placement engine the manager package used to carry (power-aware and
// least-loaded; Place, PlaceAll with its rollbacks, and Remove), checked
// in lockstep against a one-node fleet. Every name, core, error class and
// resident set is that engine's, and so is every watt figure except on
// 4-core-little: there the column is the fleet's, which applies the
// in-order core's watt scaling the old engine ignored.
func TestPlaceDigests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "place_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	seeds := uint64(50)
	if testing.Short() {
		seeds = 4
	}
	pm, err := core.SyntheticPowerModel()
	if err != nil {
		t.Fatal(err)
	}
	truth := func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
		return core.TruthFeature(spec, m), nil
	}
	ctx := context.Background()
	checked := 0
	for _, policy := range []manager.Policy{manager.PowerAware, manager.LeastLoaded} {
		for _, preset := range []func() *machine.Machine{machine.FourCoreServer, machine.TwoCoreWorkstation, machine.TwoCoreLaptop, machine.FourCoreLittle} {
			for _, maxPerCore := range []int{0, 2} {
				for seed := uint64(1); seed <= seeds; seed++ {
					m := preset()
					key := fmt.Sprintf("%s/%s/max%d/seed%d", policy, m.Name, maxPerCore, seed)
					s, err := New(Config{
						Machine: m, Power: pm, Policy: policy, MaxPerCore: maxPerCore,
						Profile: truth, Logger: discardLogger(),
					})
					if err != nil {
						t.Fatal(err)
					}
					got, err := traceDigest(ctx, s, seed)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got != want[key] {
						t.Errorf("%s: digest %s, recorded %q", key, got, want[key])
					}
					checked++
				}
			}
		}
	}
	if !testing.Short() && checked != len(want) {
		t.Errorf("replayed %d traces, the table records %d", checked, len(want))
	}
}
