package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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
	for _, want := range []string{"-bench", "-method", "server | workstation | laptop | little"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("usage does not say %q: %q", want, stderr.String())
		}
	}
}

// TestRunUsageErrors: a request that cannot be served as asked exits 2
// with a message on standard error, before any profiling.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of standard error
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"unknown machine", []string{"-machine", "mainframe"}, "mainframe"},
		{"unknown bench", []string{"-bench", "notabench"}, "notabench"},
		{"unknown method", []string{"-method", "oracle"}, "oracle"},
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

// TestRunWorkersIdentical: a quick sweep writes the same feature vector
// file, byte for byte, whether its runs go one or two at a time.
func TestRunWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles twice")
	}
	dir := t.TempDir()
	var files [2][]byte
	for i, workers := range []string{"1", "2"} {
		path := filepath.Join(dir, "mcf-"+workers+".json")
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "-machine", "workstation", "-bench", "mcf", "-workers", workers, "-json", path}
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("-workers %s: exit code %d (stderr %q)", workers, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "feature vector written to "+path) {
			t.Fatalf("-workers %s: output does not name the file:\n%s", workers, stdout.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the feature vector differs between -workers 1 and -workers 2")
	}
}
