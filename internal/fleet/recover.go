// Crash recovery: rebuilding a fleet's placement state from a WAL
// snapshot + replay (internal/wal). The log records facts, not
// decisions — recovery adopts each resident at its recorded core under
// its recorded instance name, so the rebuilt fleet is byte-identical to
// the pre-crash one: same per-core arrival order, same instance names,
// same model reduction order, same queue, same next ticket.

package fleet

import (
	"context"
	"errors"
	"fmt"

	"mpmc/internal/threads"
	"mpmc/internal/wal"
)

// Recover reinstates a recovered placement state into a freshly built
// fleet: down nodes are re-marked, residents adopted in global admission
// order, the pending queue rebuilt in queue order, and the ticket source
// resumed above the highest recovered ticket. The fleet must be pristine
// (no residents, empty queue) — recovery composes with construction, not
// with live traffic. Preemption-ledger identities are not persisted;
// recovered requeues start with a fresh backoff budget.
//
// Nothing is journaled here: the caller's log already materializes st,
// and post-recovery mutations append after it.
func (f *Fleet) Recover(ctx context.Context, st *wal.State) error {
	f.lock()
	defer f.unlock()
	for _, n := range f.nodes {
		if len(n.mgr.Residents()) > 0 {
			return errors.New("fleet: recover into a non-empty fleet")
		}
	}
	if len(f.queue) > 0 {
		return errors.New("fleet: recover with a non-empty queue")
	}
	for _, name := range st.Down {
		n := f.nodeByNameLocked(name)
		if n == nil {
			return fmt.Errorf("fleet: %w %q in recovered state", ErrUnknownNode, name)
		}
		n.down = true
	}
	for _, r := range st.Residents {
		n := f.nodeByNameLocked(r.Node)
		if n == nil {
			return fmt.Errorf("fleet: %w %q in recovered state", ErrUnknownNode, r.Node)
		}
		// ResolveSpec covers both suite workloads and thread-group bundle
		// names (rebuilt deterministically from the recorded name).
		spec := threads.ResolveSpec(r.Bench)
		if spec == nil {
			return fmt.Errorf("fleet: recovered resident %s names unknown workload %q", r.Name, r.Bench)
		}
		if err := n.mgr.Adopt(ctx, spec, r.Name, r.Core); err != nil {
			return fmt.Errorf("fleet: adopting %s on %s: %w", r.Name, r.Node, err)
		}
		if r.Tag != "" || r.Priority != 0 {
			if n.meta == nil {
				n.meta = map[string]residentMeta{}
			}
			n.meta[r.Name] = residentMeta{spec: spec, tag: r.Tag, priority: r.Priority}
		}
	}
	for name, rung := range st.Freq {
		n := f.nodeByNameLocked(name)
		if n == nil {
			return fmt.Errorf("fleet: %w %q in recovered frequency state", ErrUnknownNode, name)
		}
		ix := rung - 1
		if ix < 0 || ix >= n.cfg.Machine.Freq.NumStates() {
			return fmt.Errorf("fleet: recovered rung %d for %q outside its %d-state ladder",
				rung, name, n.cfg.Machine.Freq.NumStates())
		}
		n.freqIx = ix
	}
	for _, qe := range st.Queue {
		spec := threads.ResolveSpec(qe.Bench)
		if spec == nil {
			return fmt.Errorf("fleet: recovered ticket %d names unknown workload %q", qe.Ticket, qe.Bench)
		}
		f.queue = append(f.queue, queued{spec: spec, tag: qe.Tag, ticket: qe.Ticket, priority: qe.Priority})
		// Credit the recovered entry as a submission so this process's
		// queue ledger (submitted = admitted + abandoned + dropped +
		// depth) balances from its first scrape.
		f.qSubmitted.Inc()
	}
	if st.Seq > f.seq {
		f.seq = st.Seq
	}
	for _, n := range f.nodes {
		n.version++
	}
	// Rebuild the watt ledger against the recovered reality: rows for
	// adopted residents at their recovered rungs, zero for down nodes.
	// Uncapped fleets skip the estimates — SetPowerCap resyncs every row
	// when a budget engages.
	if f.capActive() {
		for _, n := range f.nodes {
			if err := f.resyncNodeCapLocked(ctx, n); err != nil {
				return err
			}
		}
	}
	return nil
}
