package trace

import (
	"bytes"
	"testing"

	"mpmc/internal/cache"
	"mpmc/internal/hist"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	h := hist.MustNew([]float64{0.5, 0.3}, 0.2)
	gen := NewReuseGen(h, 8, 16, 5)
	var buf bytes.Buffer
	rec := NewRecorder(gen, &buf)
	want := make([]uint64, 5000)
	rec.Fill(want)
	if rec.Count() != 5000 {
		t.Fatalf("count %d", rec.Count())
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 5000 {
		t.Fatalf("replayer holds %d refs", rep.Len())
	}
	for i, w := range want {
		if got := rep.Next(); got != w {
			t.Fatalf("ref %d: got %d want %d", i, got, w)
		}
	}
	// Wrap-around.
	if got := rep.Next(); got != want[0] {
		t.Fatalf("wrap: got %d want %d", got, want[0])
	}
}

func TestReplayReproducesCacheBehaviour(t *testing.T) {
	// Replaying a recorded stream through a fresh cache yields identical
	// hit/miss statistics — the property trace-driven simulation needs.
	h := hist.MustNew([]float64{0.4, 0.3, 0.1}, 0.2)
	gen := NewReuseGen(h, 8, 16, 7)
	var buf bytes.Buffer
	rec := NewRecorder(gen, &buf)
	c1 := cache.New(cache.Config{NumSets: 8, Assoc: 4, Policy: cache.LRU, Seed: 1})
	for i := 0; i < 20000; i++ {
		c1.Access(0, next(rec))
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c2 := cache.New(cache.Config{NumSets: 8, Assoc: 4, Policy: cache.LRU, Seed: 99})
	for i := 0; i < 20000; i++ {
		c2.Access(0, rep.Next())
	}
	if c1.Stats(0) != c2.Stats(0) {
		t.Fatalf("replay stats %+v differ from original %+v", c2.Stats(0), c1.Stats(0))
	}
}

func TestReplayerRejectsBadStreams(t *testing.T) {
	if _, err := NewReplayer(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty stream")
	}
	if _, err := NewReplayer(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("accepted truncated stream")
	}
	if _, err := NewReplayerFromSlice(nil); err == nil {
		t.Fatal("accepted empty slice")
	}
}

func TestReplayerFromSliceCopies(t *testing.T) {
	refs := []uint64{1, 2, 3}
	rep, err := NewReplayerFromSlice(refs)
	if err != nil {
		t.Fatal(err)
	}
	refs[0] = 99
	if got := rep.Next(); got != 1 {
		t.Fatalf("replayer aliases caller slice: got %d", got)
	}
}
