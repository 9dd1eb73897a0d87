package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// TestRunUsageErrors: a request that cannot be run as asked exits 2 with a
// message on standard error, before any simulation.
func TestRunUsageErrors(t *testing.T) {
	smoke := "../../internal/fleet/testdata/scenario_smoke.json"
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of standard error
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"missing scenario", nil, "-scenario is required"},
		{"cap rate without watts", []string{"-scenario", smoke, "-chaos-seed", "1", "-chaos-cap-rate", "0.5"}, "-chaos-cap-watts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("work started before the request was refused: %q", stdout.String())
			}
		})
	}
}

// TestRunGoldens: the simulator and the chaos harness reproduce their
// checked-in reports byte for byte, at one and two workers. These are the
// runs that drive the fleet's rollback, preemption, migration and recovery
// paths end to end.
func TestRunGoldens(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		args         []string
	}{
		{"sim smoke", "../../internal/fleet/testdata/sim_smoke.json",
			[]string{"-scenario", "../../internal/fleet/testdata/scenario_smoke.json"}},
		{"chaos seed 1", "../../internal/chaos/testdata/chaos_seed1.json",
			[]string{"-scenario", "../../internal/chaos/testdata/scenario_chaos.json", "-chaos-seed", "1"}},
		{"chaos threads", "../../internal/chaos/testdata/chaos_threads_seed1.json",
			[]string{"-scenario", "../../internal/fleet/testdata/scenario_threads.json", "-chaos-seed", "1"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "2"} {
			t.Run(tc.name+"/workers="+workers, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				if code := run(context.Background(), append(tc.args, "-workers", workers), &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d (stderr %q)", code, stderr.String())
				}
				if !bytes.Equal(stdout.Bytes(), want) {
					t.Fatalf("report differs from %s", tc.golden)
				}
			})
		}
	}
}
