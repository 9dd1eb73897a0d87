// Package trace generates the synthetic L2 reference streams that stand in
// for SPEC CPU2000 memory behaviour.
//
// The workhorse is the reuse-distance generator: it maintains, per cache
// set, the process's own lines in recency order and, for each access,
// samples a target stack distance from a prescribed histogram. Accessing
// the line at stack position d produces an access whose reuse distance is
// exactly d, so the generated stream's stack-distance distribution equals
// the histogram by construction — the ground truth the paper's model is
// supposed to recover from profiling.
//
// A sequential (streaming) component can be mixed in for prefetch-friendly
// workloads such as equake, and a phased generator composes generators for
// the multi-phase ablation.
package trace

import (
	"fmt"

	"mpmc/internal/hist"
	"mpmc/internal/xrand"
)

// Generator produces an infinite stream of L2 line references.
//
// A stream is a pure function of the generator's construction arguments: it
// never depends on what the cache did with earlier references, so a caller
// may draw ahead in batches without changing a run. Each generator defines
// its stream once. ReuseGen, StrideGen and Replayer define it in Next, and
// their Fill loops over Next with a static call. CyclicGen defines it in its
// Fill loop, where its set draw inlines. PhasedGen and Recorder fill from the generators they wrap.
type Generator interface {
	// Fill overwrites dst with the stream's next len(dst) line IDs.
	Fill(dst []uint64)
}

// freshBase offsets the IDs of generator-allocated fresh lines so they can
// never collide with the sequential stream's IDs (which start at zero).
const freshBase = uint64(1) << 40

// ReuseGen emits references whose per-set stack-distance distribution
// follows a prescribed histogram. Overflow mass becomes accesses to fresh
// (never-before-seen) lines, which always miss: compulsory/capacity misses.
//
// An optional sequential component (SeqFrac > 0) replaces that fraction of
// accesses with a strictly sequential stream over SeqFootprint lines.
// Sequential lines are pushed onto the same per-set stacks as fresh lines,
// so sampled reuse distances always refer to the process's full access
// stream and the effective stack-distance distribution is exactly
// (1−SeqFrac)·hist + SeqFrac·δ∞. Sequentiality itself only matters to
// next-line prefetchers.
type ReuseGen struct {
	hist    *hist.Histogram
	sampler *xrand.Categorical
	numSets int
	cap     int // per-set stack depth cap (footprint bound)
	rng     *xrand.Rand
	// stacks holds every set's own lines in recency order (MRU first) in
	// one array: set s is stacks[s·cap : s·cap+depth[s]].
	stacks   []uint64
	depth    []int
	nextLine []uint64 // per-set allocation counter for fresh lines

	seqFrac      float64
	seqFootprint uint64
	seqNext      uint64
}

// ReuseOpts configures optional ReuseGen behaviour.
type ReuseOpts struct {
	// SeqFrac is the fraction of accesses served by the sequential
	// stream; SeqFootprint is its wrap-around length in lines. SeqFrac 0
	// disables streaming.
	SeqFrac      float64
	SeqFootprint uint64
}

// NewReuseGen builds a reuse-distance generator over numSets sets. cap
// bounds the tracked footprint per set; it must be at least the histogram's
// maximum distance so every sampled distance is reachable.
func NewReuseGen(h *hist.Histogram, numSets, cap int, seed uint64) *ReuseGen {
	return NewReuseGenOpts(h, numSets, cap, seed, ReuseOpts{})
}

// NewReuseGenOpts is NewReuseGen with streaming options.
func NewReuseGenOpts(h *hist.Histogram, numSets, cap int, seed uint64, opts ReuseOpts) *ReuseGen {
	if numSets <= 0 {
		panic("trace: numSets must be positive")
	}
	if cap < h.MaxDistance() {
		panic(fmt.Sprintf("trace: footprint cap %d below histogram max distance %d", cap, h.MaxDistance()))
	}
	if opts.SeqFrac < 0 || opts.SeqFrac > 1 {
		panic("trace: SeqFrac outside [0,1]")
	}
	if opts.SeqFrac > 0 && opts.SeqFootprint == 0 {
		panic("trace: sequential component without footprint")
	}
	if opts.SeqFootprint >= freshBase {
		panic("trace: sequential footprint too large")
	}
	// Weights for distances 1..D plus overflow at index D.
	d := h.MaxDistance()
	weights := make([]float64, d+1)
	for i := 1; i <= d; i++ {
		weights[i-1] = h.P(i)
	}
	weights[d] = h.Overflow()
	g := &ReuseGen{
		hist:         h,
		sampler:      xrand.NewCategorical(weights),
		numSets:      numSets,
		cap:          cap,
		rng:          xrand.New(seed),
		stacks:       make([]uint64, numSets*cap),
		depth:        make([]int, numSets),
		nextLine:     make([]uint64, numSets),
		seqFrac:      opts.SeqFrac,
		seqFootprint: opts.SeqFootprint,
	}
	return g
}

// Next returns the next line ID: a sequential line with probability
// SeqFrac, otherwise a line at a sampled stack distance in a uniformly
// chosen set.
func (g *ReuseGen) Next() uint64 {
	if g.seqFrac > 0 && g.rng.Float64() < g.seqFrac {
		id := g.seqNext
		g.seqNext++
		if g.seqNext >= g.seqFootprint {
			g.seqNext = 0
		}
		g.push(int(id%uint64(g.numSets)), id)
		return id
	}
	set := g.rng.Intn(g.numSets)
	idx := g.sampler.Sample(g.rng)
	d := idx + 1 // distances are 1-based; idx == MaxDistance means overflow
	if idx == g.hist.MaxDistance() || d > g.depth[set] {
		// Overflow or not-yet-deep-enough stack: touch a fresh line.
		id := (freshBase+g.nextLine[set])*uint64(g.numSets) + uint64(set)
		g.nextLine[set]++
		g.push(set, id)
		return id
	}
	lines := g.stacks[set*g.cap:][:d]
	id := lines[d-1]
	copy(lines[1:], lines)
	lines[0] = id
	return id
}

// Fill writes the next len(dst) line IDs of Next's stream.
func (g *ReuseGen) Fill(dst []uint64) {
	for i := range dst {
		dst[i] = g.Next()
	}
}

// push puts id at the top of set's stack, dropping the tail at the cap.
func (g *ReuseGen) push(set int, id uint64) {
	if g.depth[set] < g.cap {
		g.depth[set]++
	}
	lines := g.stacks[set*g.cap:][:g.depth[set]]
	copy(lines[1:], lines)
	lines[0] = id
}

// StrideGen emits a pure sequential stream over a bounded footprint — the
// streaming pattern next-line prefetchers exploit. Once the stream wraps,
// every reuse distance equals the footprint, so without prefetching it
// misses in any realistic cache.
type StrideGen struct {
	next      uint64
	footprint uint64
}

// NewStrideGen builds a sequential generator that wraps after footprint
// lines. footprint must be positive.
func NewStrideGen(footprint uint64) *StrideGen {
	if footprint == 0 {
		panic("trace: zero footprint")
	}
	return &StrideGen{footprint: footprint}
}

// Next returns the next sequential line.
func (g *StrideGen) Next() uint64 {
	id := g.next
	g.next++
	if g.next >= g.footprint {
		g.next = 0
	}
	return id
}

// Fill writes the next len(dst) line IDs of Next's stream.
func (g *StrideGen) Fill(dst []uint64) {
	for i := range dst {
		dst[i] = g.Next()
	}
}

// Phase pairs a generator with the number of accesses it covers.
type Phase struct {
	Gen      Generator
	Accesses uint64
}

// PhasedGen plays a sequence of phases, then repeats from the start. It is
// used for the multi-phase ablation: the paper assumes single-phased
// processes and recommends modeling non-repeating phases separately.
type PhasedGen struct {
	phases []Phase
	cur    int
	used   uint64
}

// NewPhasedGen builds a phased generator; every phase needs at least one
// access.
func NewPhasedGen(phases []Phase) *PhasedGen {
	if len(phases) == 0 {
		panic("trace: no phases")
	}
	for _, p := range phases {
		if p.Accesses == 0 {
			panic("trace: empty phase")
		}
	}
	return &PhasedGen{phases: phases}
}

// Fill draws each stretch of dst from the phase it falls in, rolling over
// at phase boundaries.
func (g *PhasedGen) Fill(dst []uint64) {
	for len(dst) > 0 {
		p := &g.phases[g.cur]
		n := uint64(len(dst))
		if left := p.Accesses - g.used; n >= left {
			n = left
			g.used = 0
			g.cur = (g.cur + 1) % len(g.phases)
		} else {
			g.used += n
		}
		p.Gen.Fill(dst[:n])
		dst = dst[n:]
	}
}

// CyclicGen walks a fixed number of lines per set in strict rotation: every
// access has stack distance exactly linesPerSet. It is the stressmark
// pattern of Section 3.4 — with linesPerSet ways available it always hits;
// with fewer it always misses and aggressively claims ways.
type CyclicGen struct {
	rng  *xrand.Rand
	sets xrand.Bounded // the set draw, rng.Intn(numSets)
	// next holds each set's next line ID. Set s walks s, s+step, …,
	// up to below end, then wraps to s.
	next      []uint64
	step, end uint64 // numSets and linesPerSet·numSets
}

// NewCyclicGen builds the stressmark access pattern.
func NewCyclicGen(numSets, linesPerSet int, seed uint64) *CyclicGen {
	if numSets <= 0 || linesPerSet <= 0 {
		panic("trace: invalid cyclic generator geometry")
	}
	g := &CyclicGen{
		rng:  xrand.New(seed),
		sets: xrand.NewBounded(numSets),
		next: make([]uint64, numSets),
		step: uint64(numSets),
		end:  uint64(linesPerSet) * uint64(numSets),
	}
	for s := range g.next {
		g.next[s] = uint64(s)
	}
	return g
}

// Fill picks a set uniformly for each ID and writes that set's next line in
// rotation. The stream has no Next: with its set draw inlined, a one-ID
// step would be over the compiler's inlining budget, so the stream is this
// loop, into which the draw inlines, and an ID costs no call.
func (g *CyclicGen) Fill(dst []uint64) {
	// The state lives in locals for the batch: stores to g.next could
	// alias g's own fields, so through g every draw would reload them.
	rng, sets, lines, step, end := *g.rng, g.sets, g.next, g.step, g.end
	for i := range dst {
		set := sets.Draw(&rng)
		id := lines[set]
		next := id + step
		if next >= end {
			next = uint64(set)
		}
		lines[set] = next
		dst[i] = id
	}
	*g.rng = rng
}
