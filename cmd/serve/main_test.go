package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunUsageErrors: a request that cannot be served as asked exits 2
// with a message naming what would be accepted, before any training.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of standard error
	}{
		{"unknown flag", []string{"-bogus"}, "bogus"},
		{"round-robin policy", []string{"-policy", "round-robin"}, "want power-aware or least-loaded"},
		{"unknown machine", []string{"-machine", "mainframe"}, "want server, workstation, laptop, or little"},
		{"state dir without fleet", []string{"-state-dir", t.TempDir()}, "-state-dir requires -fleet"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if strings.Contains(stderr.String(), `"msg":"training power model"`) {
				t.Fatalf("training started before the request was refused: %q", stderr.String())
			}
		})
	}
}

// TestRunHelp: -h prints the usage, naming every accepted machine and
// policy, and exits 0.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, want := range []string{"server | workstation | laptop | little", "power-aware | least-loaded"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("usage does not say %q: %q", want, stderr.String())
		}
	}
	if strings.Contains(stderr.String(), "round-robin") {
		t.Fatalf("usage still offers round-robin: %q", stderr.String())
	}
}

// syncBuffer is a bytes.Buffer safe to write from the server's goroutines
// while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServesAndDrains boots the synthetic service with a durable
// one-machine fleet, places on both surfaces, and checks that cancelling
// the context drains it to exit code 0.
func TestRunServesAndDrains(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-synthetic", "-addr", addr, "-machine", "little", "-policy", "least-loaded",
			"-fleet", "workstation", "-state-dir", t.TempDir(), "-grace", "5s"}, io.Discard, &stderr)
	}()
	url := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never became healthy: %v\n%s", err, stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, path := range []string{"/v1/place", "/v1/fleet/place"} {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(`{"benches":["mcf","art"]}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, resp.StatusCode, body)
		}
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d, want 0\n%s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("service did not drain after cancellation")
	}
	if !strings.Contains(stderr.String(), `"msg":"stopped"`) {
		t.Fatalf("log does not end with stopped:\n%s", stderr.String())
	}
}
