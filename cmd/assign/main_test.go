package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/workload"
)

// TestRunUsageErrors: a request that cannot be served as asked exits 2
// with a message on standard error, before any training or profiling.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of standard error
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"unknown machine", []string{"-machine", "mainframe"}, "mainframe"},
		{"unknown bench", []string{"-benches", "mcf,notabench"}, "notabench"},
		// 4^11 > 2^20; 4^32 wraps an int to 0 and used to rank nothing.
		{"too many benches", []string{"-benches", "mcf" + strings.Repeat(",art", 10)}, "search space too large"},
		{"wrapping bench count", []string{"-verify", "-benches", "mcf" + strings.Repeat(",art", 31)}, "search space too large"},
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

// TestRunHelp: -h prints the usage, naming every accepted machine, and
// exits 0.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, want := range []string{"-benches", "server | workstation | laptop | little"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("usage does not say %q: %q", want, stderr.String())
		}
	}
}

// TestRunCancelled: a cancelled context fails the run with exit code 1.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-machine", "workstation", "-benches", "mcf,art"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), context.Canceled.Error()) {
		t.Fatalf("stderr %q does not report the cancellation", stderr.String())
	}
}

// TestRunLoadedFeatures ranks three saved feature vectors end to end: the
// power model is trained for real (hence not in -short), nothing is
// profiled, and the ranking lists every canonical assignment best first.
func TestRunLoadedFeatures(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the power model")
	}
	m := machine.TwoCoreWorkstation()
	dir := t.TempDir()
	for _, name := range []string{"mcf", "art", "gzip"} {
		data, err := json.Marshal(core.TruthFeature(workload.ByName(name), m))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-machine", "workstation", "-benches", "mcf,art,gzip", "-load", dir, "-top", "2"}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d (stderr %q)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"loaded mcf from", "loaded art from", "loaded gzip from",
		// Three processes on two symmetric cores: {abc}, {ab|c}, {ac|b}, {a|bc}.
		"4 distinct assignments evaluated",
		"  #1 ", "  #2 ", "  worst ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "profiling") || strings.Contains(out, "  #3 ") {
		t.Fatalf("profiled a loaded benchmark or ignored -top:\n%s", out)
	}
}
