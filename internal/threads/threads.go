// Package threads extends the paper's single-thread process model to
// thread-group workloads: a process that is a group of T member threads
// sharing a fraction of their data.
//
// The construction follows the OpenMP reuse-distance extension (Barai et
// al.) and the data-sharing/coherence model (Ling et al.), re-expressed
// in this repo's machinery so everything downstream — the Eq. 8
// histogram, Eq. 2 MPA, the Eq. 1 equilibrium solver, Eq. 3 SPI, the
// power model — works unchanged:
//
//   - Shared region: a fraction σ of each member's structured accesses
//     target data any sharer may have touched. Under co-location the
//     interleaved accesses of the other local members keep those lines
//     warm, so the shared mass keeps its original reuse distances and is
//     merged ONCE across members (one combined histogram), not
//     replicated per thread.
//
//   - Private region: the remaining (1−σ) mass belongs to one member
//     alone. Interleaving k co-located members dilates a private reuse
//     distance d to d·(1 + (k−1)(1−σ)): between two touches of a private
//     line, each of the k−1 siblings inserts its own distinct lines at
//     the same rate, except for the σ portion that lands on lines the
//     group already shares.
//
//   - Coherence: when sharers sit on DISTINCT caches, writes invalidate
//     remote copies. A fraction Coherence(σ, ω, remote, T) of a member's
//     accesses find their line invalidated and always miss, independent
//     of cache size — folded into the histogram as overflow mass
//     (reuse distance ∞), exactly how the streaming component is
//     modeled. Co-located sharers (remote = 0) pay nothing.
//
// A (local, remote) split of a group therefore yields a derived
// workload.Spec — a "bundle" — describing the combined stream of the
// local members: merged histogram, event rates scaled by local, Members
// set so per-group Eq. 1 terms weight the bundle by its width. A group
// with T = 1 is NOT a new spec: Bundle returns the base spec pointer
// itself, so single-thread groups are byte-identical to legacy
// processes everywhere (features, cache keys, journals, goldens).
//
// See DESIGN.md §12 for the model contract.
package threads

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"mpmc/internal/hist"
	"mpmc/internal/workload"
)

// GroupSpec describes one thread-group workload: T member threads all
// running Base's per-thread behaviour, sharing a σ fraction of their
// structured accesses, with ω of shared accesses being writes.
type GroupSpec struct {
	// Base is the per-member-thread workload.
	Base *workload.Spec
	// Threads is the member count T (≥ 1; 1 means a legacy process).
	Threads int
	// SharedFrac is σ ∈ [0,1]: the fraction of each member's structured
	// accesses that target group-shared data.
	SharedFrac float64
	// WriteFrac is ω ∈ [0,1]: the fraction of shared accesses that are
	// writes (the coherence-miss intensity knob).
	WriteFrac float64
}

// Validate checks the group for structural errors, including that the
// combined access intensity of a fully co-located bundle stays a valid
// per-instruction rate.
func (g GroupSpec) Validate() error {
	switch {
	case g.Base == nil:
		return fmt.Errorf("threads: group without base spec")
	case g.Threads < 1:
		return fmt.Errorf("threads: group %s: thread count %d < 1", g.Base.Name, g.Threads)
	case g.SharedFrac < 0 || g.SharedFrac > 1 || math.IsNaN(g.SharedFrac):
		return fmt.Errorf("threads: group %s: shared fraction %v outside [0,1]", g.Base.Name, g.SharedFrac)
	case g.WriteFrac < 0 || g.WriteFrac > 1 || math.IsNaN(g.WriteFrac):
		return fmt.Errorf("threads: group %s: write fraction %v outside [0,1]", g.Base.Name, g.WriteFrac)
	case float64(g.Threads)*g.Base.L2RPI > 1:
		return fmt.Errorf("threads: group %s: %d members × L2RPI %v exceeds one access per instruction",
			g.Base.Name, g.Threads, g.Base.L2RPI)
	case g.Base.Members > 1:
		return fmt.Errorf("threads: group base %s is itself a bundle", g.Base.Name)
	}
	return g.Base.Validate()
}

// Coherence returns the always-miss access fraction a member pays to
// invalidations: of its σ shared accesses, ω-weighted writes by the
// remote sharers have invalidated the local copy with probability
// remote/(T−1) (each of the member's T−1 siblings is equally likely to
// have written last, and only the remote ones wrote into another cache).
// It is zero whenever remote = 0 — co-located sharers never invalidate
// each other — and zero for single-thread groups.
func Coherence(sharedFrac, writeFrac float64, remote, threads int) float64 {
	if remote <= 0 || threads <= 1 {
		return 0
	}
	return sharedFrac * writeFrac * float64(remote) / float64(threads-1)
}

// Dilation returns the private-distance stretch factor for local
// co-located members: 1 + (local−1)(1−σ).
func Dilation(sharedFrac float64, local int) float64 {
	return 1 + float64(float64(local-1)*(1-sharedFrac))
}

// bundleCache interns derived bundle specs by name. Bundles are pure
// functions of their name, so sharing pointers is safe; it keeps the
// fleet's pointer-interned feature cache from treating every arrival of
// the same group shape as a distinct spec.
var bundleCache sync.Map // name -> *workload.Spec

// Bundle derives the workload.Spec for `local` members of the group
// placed together on one cache, with `remote` = T − local members on
// other caches. The result describes the COMBINED stream of the local
// members: one merged shared region, local dilated private regions, the
// coherence always-miss term, and event rates summed across the local
// members (Members = local marks the width for per-group Eq. 1 terms).
//
// A single-thread group (T = 1) returns the base spec itself — same
// pointer, same name — so legacy behaviour is structurally identical.
func (g GroupSpec) Bundle(local, remote int) (*workload.Spec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if local < 1 || remote < 0 || local+remote != g.Threads {
		return nil, fmt.Errorf("threads: group %s: bad split local=%d remote=%d of T=%d",
			g.Base.Name, local, remote, g.Threads)
	}
	if g.Threads == 1 {
		return g.Base, nil
	}
	name := BundleName(g.Base.Name, g.Threads, g.SharedFrac, g.WriteFrac, local)
	if s, ok := bundleCache.Load(name); ok {
		return s.(*workload.Spec), nil
	}
	s, err := g.build(name, local, remote)
	if err != nil {
		return nil, err
	}
	actual, _ := bundleCache.LoadOrStore(name, s)
	return actual.(*workload.Spec), nil
}

// build constructs the bundle spec (uncached).
func (g GroupSpec) build(name string, local, remote int) (*workload.Spec, error) {
	base := g.Base
	shared, k := g.SharedFrac, local
	d := Dilation(shared, k)
	coh := Coherence(shared, g.WriteFrac, remote, g.Threads)

	// Merged histogram: shared mass σ·P(i) stays at distance i (merged
	// once — NOT ×k: all local members hit the same warm lines); private
	// mass (1−σ)·P(i), contributed by each of the k local members, lands
	// at the dilated distance ⌈i·d⌉. Both regions then lose the coherence
	// fraction coh to overflow (always-miss, like streaming).
	maxD := base.Reuse.MaxDistance()
	length := int(math.Ceil(float64(maxD) * d))
	if length < maxD {
		length = maxD
	}
	weights := make([]float64, length)
	for i := 1; i <= maxD; i++ {
		p := base.Reuse.P(i)
		if p == 0 {
			continue
		}
		weights[i-1] += float64(shared * p)
		di := int(math.Ceil(float64(i) * d))
		if di > length {
			di = length
		}
		weights[di-1] += float64((1 - shared) * p)
	}
	overflow := base.Reuse.Overflow()
	if coh > 0 {
		for i := range weights {
			weights[i] *= 1 - coh
		}
		overflow = coh + float64((1-coh)*overflow)
	}
	h, err := hist.New(weights, overflow)
	if err != nil {
		return nil, fmt.Errorf("threads: group %s: merged histogram: %w", base.Name, err)
	}

	fcap := base.FootprintCap
	if fcap < h.MaxDistance() {
		fcap = h.MaxDistance()
	}
	s := &workload.Spec{
		Name:  name,
		Reuse: h,
		// The streaming component is per-member and never shared; its
		// access share of the combined stream is unchanged.
		SeqFrac:      base.SeqFrac,
		SeqFootprint: base.SeqFootprint,
		FootprintCap: fcap,
		// Event rates are per bundle instruction, where one bundle
		// instruction stands for one instruction of EACH local member
		// executing in lockstep — so per-instruction rates sum across
		// the k members. Validate() has already bounded k·L2RPI ≤ 1.
		L2RPI:   float64(k) * base.L2RPI,
		L1RPI:   float64(k) * base.L1RPI,
		BRPI:    float64(k) * base.BRPI,
		FPPI:    float64(k) * base.FPPI,
		BaseSPI: base.BaseSPI,
		Members: k,
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("threads: group %s: derived bundle: %w", base.Name, err)
	}
	return s, nil
}

// bundleSep separates bundle-name fields. It never appears in suite
// workload names, and it is none of the \x00/\x01/\x02 separators the
// fleet's content-addressed cache keys use.
const bundleSep = "|"

// BundleName deterministically encodes a bundle's full identity: base
// workload, group width T, σ, ω, and the local co-located member count
// (remote = T − local is implied). Two bundles with equal names are
// byte-identical specs, so the name is safe as a content-address in
// score keys, journals, and WAL records.
func BundleName(base string, threads int, sharedFrac, writeFrac float64, local int) string {
	return strings.Join([]string{
		base, "tg",
		strconv.Itoa(threads),
		strconv.FormatFloat(sharedFrac, 'g', -1, 64),
		strconv.FormatFloat(writeFrac, 'g', -1, 64),
		strconv.Itoa(local),
	}, bundleSep)
}

// ParseBundleName inverts BundleName: it recovers the group and the
// (local, remote) split from a bundle spec name. ok is false for
// ordinary workload names.
func ParseBundleName(name string) (g GroupSpec, local, remote int, ok bool) {
	parts := strings.Split(name, bundleSep)
	if len(parts) != 6 || parts[1] != "tg" {
		return GroupSpec{}, 0, 0, false
	}
	base := workload.ByName(parts[0])
	if base == nil {
		return GroupSpec{}, 0, 0, false
	}
	t, err1 := strconv.Atoi(parts[2])
	sf, err2 := strconv.ParseFloat(parts[3], 64)
	wf, err3 := strconv.ParseFloat(parts[4], 64)
	l, err4 := strconv.Atoi(parts[5])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || l < 1 || l > t {
		return GroupSpec{}, 0, 0, false
	}
	g = GroupSpec{Base: base, Threads: t, SharedFrac: sf, WriteFrac: wf}
	if g.Validate() != nil {
		return GroupSpec{}, 0, 0, false
	}
	return g, l, t - l, true
}

// ResolveSpec maps a recorded spec name back to its spec: suite
// workloads by name, bundle names by rebuilding the derived bundle.
// Recovery (WAL replay) and invariant checks use it so thread-group
// residents round-trip exactly like legacy ones. nil means unknown.
func ResolveSpec(name string) *workload.Spec {
	if s := workload.ByName(name); s != nil {
		return s
	}
	if g, local, remote, ok := ParseBundleName(name); ok {
		s, err := g.Bundle(local, remote)
		if err == nil {
			return s
		}
	}
	return nil
}

// SplitOccupancy divides a solved per-group Eq. 1 occupancy S of a
// bundle of `local` members into the merged shared footprint and the
// per-member private footprints, in proportion to the regions' access
// mass. The parts reconstruct the whole: shared + Σ private = S (the
// chaos invariant "Σ member occupancy = group occupancy"); every member
// gets an equal private share.
func SplitOccupancy(s float64, local int, sharedFrac float64) (shared float64, private []float64) {
	if local < 1 {
		return 0, nil
	}
	shared = s * sharedFrac
	private = make([]float64, local)
	per := s * (1 - sharedFrac) / float64(local)
	for i := range private {
		private[i] = per
	}
	return shared, private
}
