package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunHelp: -h prints the usage and exits 0.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, want := range []string{"-quick", "-list", "-workers"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("usage does not say %q: %q", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Fatalf("-h wrote to standard output: %q", stdout.String())
	}
}

// TestRunUsageErrors: a request that cannot be served as asked exits 2
// with a message on standard error, before any experiment runs — an
// unknown id among known ones included.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of standard error
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"unknown experiment", []string{"-quick", "table1", "table99"}, "table99"},
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

// TestRunList: -list names every experiment id and runs none.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d (stderr %q)", code, stderr.String())
	}
	for _, e := range experiments {
		if !strings.Contains(stdout.String(), e.id) {
			t.Fatalf("-list does not name %q: %q", e.id, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "==") {
		t.Fatalf("-list ran an experiment: %q", stdout.String())
	}
}
