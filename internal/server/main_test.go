package server

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"mpmc/internal/workload"
)

// TestMain holds the whole package — the end-to-end transcripts, the
// concurrent traffic and chaos suites, every handler that resolves a
// benchmark by name — to workload.ByName's contract: the process-wide suite it
// hands out is read-only. Every spec must still equal a freshly built one,
// field for field (histograms included), after the tests have run.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, fresh := range workload.Suite() {
		if !reflect.DeepEqual(workload.ByName(fresh.Name), fresh) {
			fmt.Fprintf(os.Stderr, "FAIL: a test mutated the shared workload spec %q\n", fresh.Name)
			code = 1
		}
	}
	os.Exit(code)
}
