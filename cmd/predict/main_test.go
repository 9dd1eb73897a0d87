package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunHelp: -h prints the usage, naming every accepted machine, and
// exits 0.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, want := range []string{"-benches", "-solver", "server | workstation | laptop | little"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("usage does not say %q: %q", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Fatalf("-h wrote to standard output: %q", stdout.String())
	}
}

// TestRunUsageErrors: a request that cannot be served as asked exits 2
// with a message on standard error, before any profiling or solving.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of standard error
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"unknown machine", []string{"-machine", "mainframe"}, "mainframe"},
		{"unknown solver", []string{"-solver", "guess"}, "guess"},
		{"unknown bench", []string{"-benches", "mcf,notabench"}, "notabench"},
		{"too many benches", []string{"-machine", "laptop", "-benches", "mcf,art,gzip"}, "exceed"},
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

// TestRunTruthPrediction: oracle features need no profiling, so a
// prediction for a pair runs in milliseconds and prints one row per
// benchmark.
func TestRunTruthPrediction(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-truth", "-benches", "mcf,art"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d (stderr %q)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"equilibrium prediction on 4-core-server", "mcf", "art"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output does not say %q: %q", want, out)
		}
	}
}
