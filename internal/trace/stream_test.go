package trace

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mpmc/internal/hist"
)

// streamDigest hashes the first n line IDs of gen.
func streamDigest(gen Generator, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[:], gen.Next())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestRecordedStreams pins the first 100 000 IDs of every seeded generator
// to digests recorded before the generators were rebuilt around flat
// arrays: the simulator's bit-identity rests on the streams (and so the
// xrand draws behind them) being exactly what they were.
func TestRecordedStreams(t *testing.T) {
	h := hist.MustNew([]float64{0.30, 0.20, 0.15, 0.10, 0.05, 0.05, 0.03, 0.02}, 0.10)
	h2 := hist.MustNew([]float64{0.1, 0.1, 0.5, 0.2}, 0.1)
	for _, tc := range []struct {
		name string
		gen  Generator
		want uint64
	}{
		{"reuse", NewReuseGen(h, 64, 32, 42), 0xe180ce764cab359c},
		{"reuse-tight-cap", NewReuseGen(h, 48, 8, 7), 0x68e1234171e02761},
		{"reuse-seq", NewReuseGenOpts(h, 32, 24, 17, ReuseOpts{SeqFrac: 0.35, SeqFootprint: 5000}), 0xf1ac5b4a328d8b0f},
		{"cyclic", NewCyclicGen(64, 5, 13), 0xeb725511d07d8611},
		{"cyclic-one-line", NewCyclicGen(32, 1, 3), 0x861b39163391bbef},
		{"phased", NewPhasedGen([]Phase{
			{Gen: NewReuseGen(h, 32, 16, 5), Accesses: 700},
			{Gen: NewReuseGen(h2, 32, 16, 12), Accesses: 1300},
		}), 0x90b692f84f10a9c0},
	} {
		if got := streamDigest(tc.gen, 100000); got != tc.want {
			t.Errorf("%s: stream digest %#016x, recorded %#016x", tc.name, got, tc.want)
		}
	}
}

func TestNextDoesNotAllocate(t *testing.T) {
	h := hist.MustNew([]float64{0.30, 0.20, 0.15, 0.10}, 0.25)
	for name, gen := range map[string]Generator{
		"reuse":     NewReuseGen(h, 16, 8, 1),
		"reuse-seq": NewReuseGenOpts(h, 16, 8, 1, ReuseOpts{SeqFrac: 0.5, SeqFootprint: 300}),
		"cyclic":    NewCyclicGen(16, 3, 1),
	} {
		// From the first call: the stacks are preallocated, not grown.
		if n := testing.AllocsPerRun(1000, func() { gen.Next() }); n != 0 {
			t.Errorf("%s: Next allocates %v objects", name, n)
		}
	}
}
