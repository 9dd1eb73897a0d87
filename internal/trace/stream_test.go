package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mpmc/internal/hist"
	"mpmc/internal/xrand"
)

// next draws one ID from gen.
func next(gen Generator) uint64 {
	var id [1]uint64
	gen.Fill(id[:])
	return id[0]
}

// digestBatches are the Fill sizes streamDigest cycles through: empty,
// single, odd and larger than a simulated process's ID buffer.
var digestBatches = []int{1, 0, 7, 256, 3, 1000, 64, 1}

// streamDigest hashes the first n line IDs of gen, drawn through Fill in
// batches of digestBatches' sizes.
func streamDigest(gen Generator, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	ids := make([]uint64, 1000)
	for i := 0; n > 0; i++ {
		b := ids[:min(digestBatches[i%len(digestBatches)], n)]
		gen.Fill(b)
		for _, id := range b {
			binary.LittleEndian.PutUint64(buf[:], id)
			h.Write(buf[:])
		}
		n -= len(b)
	}
	return h.Sum64()
}

// TestRecordedStreams pins the first 100 000 IDs of every seeded generator
// to digests recorded before the generators were rebuilt around flat
// arrays, and before they were drawn in batches: the simulator's
// bit-identity rests on the streams (and so the xrand draws behind them)
// being exactly what they were.
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

// cyclicRef is the stressmark stream written out plainly: a set from
// Intn, then that set's next line in rotation.
func cyclicRef(numSets, lines int, seed uint64) func() uint64 {
	rng := xrand.New(seed)
	pos := make([]int, numSets)
	return func() uint64 {
		set := rng.Intn(numSets)
		k := pos[set]
		pos[set] = (k + 1) % lines
		return uint64(k*numSets + set)
	}
}

// phasedGen plays a reuse phase of 5 accesses, a stride phase of 300 and a
// second reuse phase of 1, so batch boundaries fall inside phases and
// phases inside batches.
func phasedGen(seed uint64) Generator {
	h := hist.MustNew([]float64{0.4, 0.3, 0.1}, 0.2)
	return NewPhasedGen([]Phase{
		{Gen: NewReuseGen(h, 16, 8, seed), Accesses: 5},
		{Gen: NewStrideGen(97), Accesses: 300},
		{Gen: NewReuseGen(h, 16, 8, seed+1), Accesses: 1},
	})
}

// phasedRef is phasedGen's stream one ID at a time, from fresh phase
// generators.
func phasedRef(seed uint64) func() uint64 {
	h := hist.MustNew([]float64{0.4, 0.3, 0.1}, 0.2)
	gens := []func() uint64{NewReuseGen(h, 16, 8, seed).Next, NewStrideGen(97).Next, NewReuseGen(h, 16, 8, seed+1).Next}
	lens := []int{5, 300, 1}
	cur, used := 0, 0
	return func() uint64 {
		id := gens[cur]()
		if used++; used == lens[cur] {
			cur, used = (cur+1)%len(gens), 0
		}
		return id
	}
}

// replayRefs is a 1001-ID recording, so batches straddle its wrap.
func replayRefs(seed uint64) []uint64 {
	refs := make([]uint64, 1001)
	NewStrideGen(1 << 20).Fill(refs[:seed%500])
	NewCyclicGen(16, 3, seed).Fill(refs[seed%500:])
	return refs
}

func mustReplayer(refs []uint64) *Replayer {
	r, err := NewReplayerFromSlice(refs)
	if err != nil {
		panic(err)
	}
	return r
}

// fillCase is a generator under test and an independent source of the
// same stream, one ID per call; both are built fresh from a seed.
type fillCase struct {
	name string
	gen  func(seed uint64) Generator
	ref  func(seed uint64) func() uint64
}

var fillHist = hist.MustNew([]float64{0.30, 0.20, 0.15, 0.10}, 0.25)

var fillCases = []fillCase{
	{"reuse",
		func(s uint64) Generator { return NewReuseGen(fillHist, 16, 8, s) },
		func(s uint64) func() uint64 { return NewReuseGen(fillHist, 16, 8, s).Next }},
	{"reuse-seq",
		func(s uint64) Generator {
			return NewReuseGenOpts(fillHist, 16, 8, s, ReuseOpts{SeqFrac: 0.4, SeqFootprint: 300})
		},
		func(s uint64) func() uint64 {
			return NewReuseGenOpts(fillHist, 16, 8, s, ReuseOpts{SeqFrac: 0.4, SeqFootprint: 300}).Next
		}},
	{"cyclic",
		func(s uint64) Generator { return NewCyclicGen(64, 5, s) },
		func(s uint64) func() uint64 { return cyclicRef(64, 5, s) }},
	{"cyclic-48-sets",
		func(s uint64) Generator { return NewCyclicGen(48, 12, s) },
		func(s uint64) func() uint64 { return cyclicRef(48, 12, s) }},
	{"cyclic-one-line",
		func(s uint64) Generator { return NewCyclicGen(32, 1, s) },
		func(s uint64) func() uint64 { return cyclicRef(32, 1, s) }},
	{"stride",
		func(s uint64) Generator { return NewStrideGen(97 + s%7) },
		func(s uint64) func() uint64 { return NewStrideGen(97 + s%7).Next }},
	{"phased", phasedGen, phasedRef},
	{"replay",
		func(s uint64) Generator { return mustReplayer(replayRefs(s)) },
		func(s uint64) func() uint64 { return mustReplayer(replayRefs(s)).Next }},
}

// checkFill draws batches of the given sizes from gen and requires them to
// be ref's stream end to end. It returns what Fill returned.
func checkFill(t *testing.T, name string, gen Generator, ref func() uint64, sizes []int) []uint64 {
	t.Helper()
	var got []uint64
	for _, n := range sizes {
		b := make([]uint64, n)
		for i := range b {
			b[i] = 0xdead // Fill must overwrite every slot
		}
		gen.Fill(b)
		got = append(got, b...)
	}
	for i, id := range got {
		if want := ref(); id != want {
			t.Fatalf("%s: ID %d is %#x through Fill, %#x one at a time (batches %v)", name, i, id, want, sizes)
		}
	}
	return got
}

// checkRecorder runs checkFill on a recorder over a reuse generator and
// requires the recording to hold exactly what Fill returned.
func checkRecorder(t *testing.T, seed uint64, sizes []int) {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(NewReuseGen(fillHist, 16, 8, seed), &buf)
	got := checkFill(t, "recorder", rec, NewReuseGen(fillHist, 16, 8, seed).Next, sizes)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != uint64(len(got)) || buf.Len() != 8*len(got) {
		t.Fatalf("recorder: returned %d IDs, counted %d, recorded %d bytes", len(got), rec.Count(), buf.Len())
	}
	for i, id := range got {
		if rid := binary.LittleEndian.Uint64(buf.Bytes()[8*i:]); rid != id {
			t.Fatalf("recorder: ID %d returned %#x, recorded %#x", i, id, rid)
		}
	}
}

// TestFillMatchesNext draws every generator in mixed batch sizes — empty,
// single, odd and larger than a simulated process's ID buffer — and
// requires the stream one-at-a-time draws give.
func TestFillMatchesNext(t *testing.T) {
	sizes := []int{0, 1, 7, 1, 0, 300, 2, 513, 1, 64, 1000, 3, 1}
	for _, tc := range fillCases {
		for _, seed := range []uint64{1, 42} {
			checkFill(t, tc.name, tc.gen(seed), tc.ref(seed), sizes)
		}
	}
	checkRecorder(t, 1, sizes)
	checkRecorder(t, 42, nil)
}

// FuzzFillMatchesNext is TestFillMatchesNext over a fuzzed seed, generator
// and batch sizes (each size byte scaled by 3, so up to 765 IDs).
func FuzzFillMatchesNext(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0, 1, 3, 100, 255})
	f.Add(uint64(7), uint8(7), []byte{2, 101, 1, 0, 255, 255})
	f.Add(uint64(9), uint8(8), []byte{200, 200, 1})
	f.Add(uint64(3), uint8(9), []byte{1, 1, 1, 90})
	f.Fuzz(func(t *testing.T, seed uint64, which uint8, raw []byte) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		sizes := make([]int, len(raw))
		for i, b := range raw {
			sizes[i] = 3 * int(b)
		}
		if int(which)%(len(fillCases)+1) == len(fillCases) {
			checkRecorder(t, seed, sizes)
			return
		}
		tc := fillCases[int(which)%(len(fillCases)+1)]
		checkFill(t, tc.name, tc.gen(seed), tc.ref(seed), sizes)
	})
}

func TestNextDoesNotAllocate(t *testing.T) {
	h := hist.MustNew([]float64{0.30, 0.20, 0.15, 0.10}, 0.25)
	for name, gen := range map[string]interface{ Next() uint64 }{
		"reuse":     NewReuseGen(h, 16, 8, 1),
		"reuse-seq": NewReuseGenOpts(h, 16, 8, 1, ReuseOpts{SeqFrac: 0.5, SeqFootprint: 300}),
		"stride":    NewStrideGen(300),
		"replay":    mustReplayer(replayRefs(1)),
	} {
		// From the first call: the stacks are preallocated, not grown.
		if n := testing.AllocsPerRun(1000, func() { gen.Next() }); n != 0 {
			t.Errorf("%s: Next allocates %v objects", name, n)
		}
	}
	var discard bytes.Buffer
	ids := make([]uint64, 300)
	for name, gen := range map[string]Generator{
		"reuse":     NewReuseGen(h, 16, 8, 1),
		"reuse-seq": NewReuseGenOpts(h, 16, 8, 1, ReuseOpts{SeqFrac: 0.5, SeqFootprint: 300}),
		"cyclic":    NewCyclicGen(16, 3, 1),
		"stride":    NewStrideGen(300),
		"phased":    phasedGen(1),
		"replay":    mustReplayer(replayRefs(1)),
		"recorder":  NewRecorder(NewCyclicGen(16, 3, 1), &discard),
	} {
		if n := testing.AllocsPerRun(100, func() { gen.Fill(ids); discard.Reset() }); n != 0 {
			t.Errorf("%s: Fill allocates %v objects", name, n)
		}
	}
}
