package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mpmc/internal/cache"
	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/machine"
	"mpmc/internal/manager"
	"mpmc/internal/metrics"
	"mpmc/internal/parallel"
	"mpmc/internal/workload"
)

// ProfileFunc runs one profiling sweep. The default is core.Profile; the
// simulator and tests substitute the analytic oracle to keep replays
// instant and deterministic.
type ProfileFunc func(ctx context.Context, m *machine.Machine, spec *workload.Spec, opts core.ProfileOptions) (*core.FeatureVector, error)

// machineKind is one distinct machine preset of the fleet: the first
// configured *machine.Machine carrying the name. The name is the whole
// cache identity (featureKey), so every node with that name — whatever
// Machine pointer its config holds — shares the kind and its vectors.
type machineKind struct {
	m *machine.Machine
	// node names the node that introduced the kind (error messages).
	node string
	// keys interns featureKey(m, spec) by workload name (guarded by
	// featureCache.keyMu): a (kind, name) pair is the identity of a feature
	// vector, so nothing here is keyed by a per-request *workload.Spec.
	keys map[string]string
}

// featureCache is the fleet's shared FeatureSource: one bounded LRU of
// profiled feature vectors in front of the profiling sweep, keyed by
// (machine kind, workload name) because a feature vector is profiled
// against a specific cache geometry — two nodes of the same preset share
// vectors, heterogeneous presets each get their own. Singleflight
// deduplication guarantees that a burst of placements for one benchmark
// triggers exactly one sweep per machine kind, no matter how many nodes
// score it concurrently.
type featureCache struct {
	lru    *cache.LRUMap[*core.FeatureVector]
	flight cache.Flight[*core.FeatureVector]

	// kinds lists the machine kinds in first-appearance (node) order. It
	// grows only while New/NewSharded assemble the nodes and is read-only
	// once the fleet is in use.
	kinds []*machineKind
	// keyMu guards every kind's interned key strings: key construction
	// sits on the placement hot path, and the pair space is kinds ×
	// workload names.
	keyMu sync.RWMutex

	profile   ProfileFunc
	intercept func(site, key string) error
	seed      uint64
	quick     bool
	workers   int

	runs      *metrics.Counter
	dedups    *metrics.Counter
	abandoned *metrics.Counter
}

func newFeatureCache(cfg Config, reg *metrics.Registry) *featureCache {
	return &featureCache{
		lru:       cache.NewLRUMap[*core.FeatureVector](cfg.CacheCap),
		profile:   cfg.Profile,
		intercept: cfg.Intercept,
		seed:      cfg.Seed,
		quick:     cfg.Quick,
		workers:   cfg.Workers,
		runs:      reg.Counter("fleet_profile_runs_total"),
		dedups:    reg.Counter("fleet_profile_dedup_total"),
		abandoned: reg.Counter("fleet_profile_abandoned_total"),
	}
}

// kindOf returns the kind of node's machine, registering it on first
// sight. A name reused with a different cache geometry or memory system
// is rejected: the two nodes would silently share one feature vector
// profiled against only the first.
func (fc *featureCache) kindOf(node string, m *machine.Machine) (*machineKind, error) {
	for _, k := range fc.kinds {
		if k.m.Name != m.Name {
			continue
		}
		if o := k.m; o != m && (o.NumSets != m.NumSets || o.Assoc != m.Assoc || o.Policy != m.Policy ||
			o.Prefetch != m.Prefetch || o.MemLatency != m.MemLatency ||
			o.MemBandwidth != m.MemBandwidth || o.MLPOverlap != m.MLPOverlap) {
			return nil, fmt.Errorf("fleet: nodes %q and %q both name machine %q but differ in cache geometry or memory system; feature vectors are shared by machine name",
				k.node, node, m.Name)
		}
		return k, nil
	}
	k := &machineKind{m: m, node: node, keys: map[string]string{}}
	fc.kinds = append(fc.kinds, k)
	return k, nil
}

// key builds the cache identity of a (machine kind, workload) pair. The
// machine name identifies the preset (and therefore the cache geometry the
// sweep ran against); NUL never appears in either name.
func featureKey(m *machine.Machine, spec *workload.Spec) string {
	return m.Name + "\x00" + spec.Name
}

// maxInternedKeys bounds one kind's interned keys. Suite names are few,
// but thread-group bundle names embed request parameters, so a hostile
// stream can mint names without end; past the bound the table restarts.
const maxInternedKeys = 4096

// keyOf returns featureKey(k.m, spec) without rebuilding the string on
// every call.
func (fc *featureCache) keyOf(k *machineKind, spec *workload.Spec) string {
	fc.keyMu.RLock()
	key, ok := k.keys[spec.Name]
	fc.keyMu.RUnlock()
	if ok {
		return key
	}
	key = featureKey(k.m, spec)
	fc.keyMu.Lock()
	if len(k.keys) >= maxInternedKeys {
		clear(k.keys)
	}
	k.keys[spec.Name] = key
	fc.keyMu.Unlock()
	return key
}

// resolve profiles every (machine kind, spec) pair a placement will need,
// outside any fleet lock, so no lock is ever held across a profiling
// sweep. The singleflight collapses concurrent resolves.
func (fc *featureCache) resolve(ctx context.Context, specs []*workload.Spec) error {
	// The fan-out below checks cancellation implicitly; the warm path must
	// too, so a cancelled Place fails identically warm or cold.
	if err := ctx.Err(); err != nil {
		return err
	}
	type pair struct {
		k    *machineKind
		spec *workload.Spec
	}
	// Already-profiled pairs are filtered inline: on the placement hot
	// path everything is resident, and the fan-out (worker goroutines,
	// dedup map) would cost more than the whole probe.
	var pairs []pair
	var seen map[string]bool
	for _, s := range specs {
		for _, k := range fc.kinds {
			key := fc.keyOf(k, s)
			if _, ok := fc.lru.Get(key); ok {
				continue
			}
			if seen == nil {
				seen = map[string]bool{}
			}
			if !seen[key] {
				seen[key] = true
				pairs = append(pairs, pair{k, s})
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	return parallel.ForEach(ctx, fc.workers, len(pairs), func(i int) error {
		_, err := fc.get(ctx, pairs[i].k, pairs[i].spec)
		return err
	})
}

// get returns the feature vector of spec profiled against machine kind k,
// running the sweep on first sight. Per-workload seeds derive from the
// base seed and the workload name alone (core.ProfileSeed via the shared
// cli.FeatureConfig), so vectors are identical to the ones the
// single-machine server and the CLI tools produce.
func (fc *featureCache) get(ctx context.Context, k *machineKind, spec *workload.Spec) (*core.FeatureVector, error) {
	m, key := k.m, fc.keyOf(k, spec)
	if f, ok := fc.lru.Get(key); ok {
		return f, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err, shared := fc.flight.Do(key, func() (*core.FeatureVector, error) {
		if f, ok := fc.lru.Get(key); ok {
			return f, nil
		}
		// The injection seam sits inside the singleflight on purpose: a
		// burst of deduplicated callers must all observe one injected
		// failure (and nothing may be cached from it), exactly like a
		// real profiling error.
		if fc.intercept != nil {
			if err := fc.intercept("fleet.profile", key); err != nil {
				return nil, err
			}
		}
		fc.runs.Inc()
		fcfg := cli.FeatureConfig{Seed: fc.seed, Quick: fc.quick, Workers: fc.workers}
		f, err := fc.profile(ctx, m, spec, fcfg.ProfileOptions(spec.Name))
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fc.abandoned.Inc()
			}
			return nil, fmt.Errorf("fleet: profiling %s on %s: %w", spec.Name, m.Name, err)
		}
		// Thread-group bundles carry their member count on the spec;
		// stamp it here so every profiler (including injected test
		// profilers that ignore the field) yields group-weighted terms.
		if spec.Members > 1 && f.Members != spec.Members {
			f.Members = spec.Members
		}
		fc.lru.Put(key, f)
		return f, nil
	})
	if shared {
		fc.dedups.Inc()
	}
	return f, err
}

// nodeSource adapts the shared cache to one node's manager.FeatureSource.
type nodeSource struct {
	fc *featureCache
	k  *machineKind
}

func (s nodeSource) FeatureOf(ctx context.Context, spec *workload.Spec) (*core.FeatureVector, error) {
	return s.fc.get(ctx, s.k, spec)
}

var _ manager.FeatureSource = nodeSource{}
