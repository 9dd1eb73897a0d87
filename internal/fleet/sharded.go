// Sharded fleet: the serving tier's scale-out form. Nodes are split into
// contiguous, independently-locked groups (each an ordinary Fleet), so
// placements that commit on disjoint groups proceed concurrently instead
// of serializing on one fleet lock.
//
// A Sharded is its whole fleet: the embedded *Fleet spans every shard's
// nodes in global order and owns the one admission queue. Its lock is
// every shard mutex in index order (one canonical order, so two
// cross-shard operations can never deadlock) and then its own mutex, which
// alone guards the queue; holding it, the sharded fleet IS an unsharded
// fleet over the concatenated node list. So batches, groups, no-fit
// confirmation and preemption, rebalancing, the power cap, recovery, node
// failure, the state views, the queue and its pump are Fleet's own code,
// promoted. The pump already runs the optimistic loop (detach.go) over the
// shards, exactly as a standalone fleet runs it over itself.
//
// Sharded overrides only what the promoted form would serialize: a single
// placement takes that same optimistic loop instead of Fleet.PlaceWith's
// whole lock, and a departure takes its node's shard lock alone before the
// pump. Decisions stay byte-identical to the unsharded scheduler: the
// per-shard score vectors concatenate in shard order (= global node index
// order) and the whole fleet's selector reduces them with the same strict
// less-than tie-breaks (the equivalence sweep pins this). Lock order, the
// only one: shard mutexes ascending, queue mutex last; never a shard mutex
// while holding the queue mutex.
package fleet

import (
	"context"
	"errors"
	"fmt"

	"mpmc/internal/metrics"
	"mpmc/internal/workload"
)

// Sharded is the sharded serving-tier scheduler. All methods are safe
// for concurrent use.
type Sharded struct {
	// Fleet is the whole fleet: every shard's nodes in global order, the one
	// admission queue, and the registry, feature cache, score memo, solver
	// state, solve counter and watt ledger the shards share.
	*Fleet
}

// NewSharded splits cfg.Nodes into the given number of contiguous,
// independently-locked groups. The profiling cache, score memo, solver
// state, watt ledger and registry are shared across shards (content-
// addressed or self-locking, so sharing never changes a value). With more
// than one shard the Spread policy and a MaxFeasible cut are rejected:
// both are global serial state (a rotation cursor, a first-K-feasible
// cut) that cannot be decided per-shard without changing decisions.
func NewSharded(cfg Config, shards int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fleet: shards %d < 1", shards)
	}
	if len(cfg.Nodes) < shards {
		return nil, fmt.Errorf("fleet: %d shards for %d nodes", shards, len(cfg.Nodes))
	}
	if shards > 1 {
		if cfg.Policy == Spread {
			return nil, errors.New("fleet: the Spread policy is serial (rotation cursor) and cannot shard")
		}
		if cfg.MaxFeasible > 0 {
			return nil, errors.New("fleet: MaxFeasible is a global cut and cannot shard")
		}
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	// Default node names are assigned from the GLOBAL index before the
	// split (a shard would otherwise restart at m0), so sharded node
	// identities match the unsharded fleet's exactly.
	cfg.Nodes = append([]NodeConfig(nil), cfg.Nodes...)
	for i := range cfg.Nodes {
		if cfg.Nodes[i].Name == "" {
			cfg.Nodes[i].Name = fmt.Sprintf("m%d", i)
		}
	}
	all := newShell(cfg)
	if all.capL == nil {
		// Always created (even uncapped) so a later SetPowerCap engages
		// one budget across every shard; watts 0 keeps admissions free.
		all.capL = newCapLedger()
	}
	// Contiguous ranges, the first len%shards groups one node larger, so
	// shard order concatenation reproduces the global node index order.
	per, extra := len(cfg.Nodes)/shards, len(cfg.Nodes)%shards
	for i, startIdx := 0, 0; i < shards; i++ {
		size := per
		if i < extra {
			size++
		}
		sub := cfg
		sub.Nodes = cfg.Nodes[startIdx : startIdx+size]
		sub.QueueCap = 0 // the queue lives with the whole fleet
		sub.whole = all
		sh, err := New(sub)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		all.domain = append(all.domain, sh)
		all.nodes = append(all.nodes, sh.nodes...)
		startIdx += size
	}
	if err := all.wire(); err != nil {
		return nil, err
	}
	// Registered up front: a sharded fleet always exposes its conflict count.
	all.reg.Counter("fleet_shard_conflict_total")
	all.reg.OnCollect(func(r *metrics.Registry) {
		r.Gauge("fleet_shards").Set(int64(len(all.shards)))
	})
	return &Sharded{all}, nil
}

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Place admits one arrival at the policy's best slot across all shards.
func (s *Sharded) Place(ctx context.Context, spec *workload.Spec) (Placed, error) {
	return s.PlaceWith(ctx, spec, PlaceOptions{})
}

// PlaceWith is Place with explicit scheduling options, on the optimistic
// path: score every shard without a lock held across the solves, commit on
// the winning shard while its node's stamp is unchanged; conflicts
// re-score that node. What the optimistic pass cannot settle — no feasible
// slot, a watt refusal, a run of conflicts — the whole fleet's PlaceWith
// decides under every lock, rejecting or preempting exactly like the
// unsharded fleet. Spread always decides there.
func (s *Sharded) PlaceWith(ctx context.Context, spec *workload.Spec, opts PlaceOptions) (Placed, error) {
	if !s.detached() {
		return s.Fleet.PlaceWith(ctx, spec, opts)
	}
	if err := s.feats.resolve(ctx, []*workload.Spec{spec}); err != nil {
		return Placed{}, err
	}
	scores, vers, err := s.scoreAll(ctx, spec, opts)
	if err != nil {
		return Placed{}, err
	}
	p, outcome, err := s.commitDetached(ctx, spec, opts, scores, vers)
	if err != nil || outcome == pumpPlaced {
		return p, err
	}
	return s.Fleet.PlaceWith(ctx, spec, opts)
}

// Remove evicts the named instance from the named node, under that node's
// shard lock alone, and pumps the queue into the freed capacity. (The
// shard's own queue is always empty, so its internal cascade is a no-op.)
func (s *Sharded) Remove(ctx context.Context, nodeName, instance string) ([]Placed, error) {
	for _, sh := range s.shards {
		if sh.byName[nodeName] != nil {
			if _, err := sh.Remove(ctx, nodeName, instance); err != nil {
				return nil, err
			}
			return s.Pump(ctx)
		}
	}
	return nil, fmt.Errorf("fleet: %w %q", ErrUnknownNode, nodeName)
}
