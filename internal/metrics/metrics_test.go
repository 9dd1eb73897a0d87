package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`requests_total{endpoint="predict",code="200"}`)
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d; want 3", got)
	}
	// Same name returns the same instrument.
	if r.Counter(`requests_total{endpoint="predict",code="200"}`) != c {
		t.Fatal("same name produced a different counter")
	}
	if got := r.CounterValue(`requests_total{endpoint="predict",code="200"}`); got != 3 {
		t.Fatalf("CounterValue = %d; want 3", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Fatalf("CounterValue(absent) = %d; want 0", got)
	}
	// Raise mirrors a count kept elsewhere: up to a larger value, never back.
	c.Raise(7)
	c.Raise(5)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter after Raise(7), Raise(5) = %d; want 7", got)
	}

	g := r.Gauge("profile_inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d; want 1", got)
	}
	g.Set(5)
	if got := r.GaugeValue("profile_inflight"); got != 5 {
		t.Fatalf("GaugeValue = %d; want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	bounds, cum, sum, count := h.Snapshot()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("snapshot shape: %d bounds, %d buckets", len(bounds), len(cum))
	}
	// le semantics: 0.1 falls in the 0.1 bucket.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative[%d] = %d; want %d (all %v)", i, cum[i], w, cum)
		}
	}
	if count != 5 || sum != 102.65 {
		t.Fatalf("sum=%v count=%d; want 102.65, 5", sum, count)
	}
}

func TestWriteTextFormatAndDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter(`requests_total{endpoint="b"}`).Inc()
	r.Counter(`requests_total{endpoint="a"}`).Add(2)
	r.Gauge("cache_entries").Set(7)
	r.Histogram(`req_seconds{endpoint="a"}`, []float64{0.5}).Observe(0.2)

	var b1, b2 strings.Builder
	if err := r.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("two renders differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{endpoint="a"} 2`,
		`requests_total{endpoint="b"} 1`,
		"# TYPE cache_entries gauge",
		"cache_entries 7",
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{endpoint="a",le="0.5"} 1`,
		`req_seconds_bucket{endpoint="a",le="+Inf"} 1`,
		`req_seconds_sum{endpoint="a"} 0.2`,
		`req_seconds_count{endpoint="a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Ordered samples: endpoint="a" before endpoint="b".
	if strings.Index(out, `endpoint="a"} 2`) > strings.Index(out, `endpoint="b"} 1`) {
		t.Fatalf("samples not sorted:\n%s", out)
	}
	// TYPE header appears exactly once per family.
	if strings.Count(out, "# TYPE requests_total") != 1 {
		t.Fatalf("duplicate TYPE header:\n%s", out)
	}
}

func TestOnCollect(t *testing.T) {
	r := NewRegistry()
	r.OnCollect(func(reg *Registry) {
		reg.Gauge("synced").Set(42)
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "synced 42") {
		t.Fatalf("collector did not run:\n%s", b.String())
	}
}

// TestConcurrentUse exercises create-on-demand and observation from many
// goroutines under the race detector.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Inc()
				r.Histogram("h", nil).Observe(float64(j) / 100)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.CounterValue("c"); got != 4000 {
		t.Fatalf("counter = %d; want 4000", got)
	}
	_, _, _, count := r.Histogram("h", nil).Snapshot()
	if count != 4000 {
		t.Fatalf("histogram count = %d; want 4000", count)
	}
}
