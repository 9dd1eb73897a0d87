// Operation-scoped combination table and the solver's reusable workspace.
//
// Figure 1 prices a tentative placement by solving Eqs. 6–7 for every co-run
// combination of the affected cache group (Eq. 10), and one placement prices
// many of them: a node's base groups and then each candidate core's group,
// whose combinations mostly repeat the base's, and then the commit's own
// estimates of the winner. A ComboTable remembers the predictions of every
// contended combination one operation has solved, so the operation solves
// each distinct combination once. A solve is a pure function of its key —
// the ordered feature-vector identities, the associativity and the solver
// method — so an answer from the table is the solve's own bytes.
//
// The table holds nothing across operations: its owner empties it when the
// operation ends, so a cold caller stays cold.

package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"mpmc/internal/cache"
)

// comboWidth is the widest co-run combination a ComboTable keys — one
// feature vector per busy core of a cache group. A wider one is solved
// unshared.
const comboWidth = 8

// comboKey names one contended solve: its inputs, by identity.
type comboKey struct {
	assoc  int
	method SolverMethod
	n      int
	f      [comboWidth]*FeatureVector
}

// comboSpan locates one entry's predictions in the table's slab.
type comboSpan struct{ off, n int32 }

// maxComboEntries bounds what Reset keeps allocated: a table that grew past
// it is dropped rather than cleared, so one large operation does not pin
// its memory for good.
const maxComboEntries = 1 << 14

// ComboTable maps the contended co-run combinations one operation has
// solved to their predictions. Its methods are safe for concurrent use (a
// fanned-out scoring pass shares its caller's table) and nil-safe: a nil
// table solves every combination, as the CombinedModel methods do.
type ComboTable struct {
	mu      sync.Mutex
	entries map[comboKey]comboSpan
	// slab holds every entry's predictions back to back; Reset keeps it.
	slab []Prediction

	solves atomic.Uint64
}

// NewComboTable returns an empty table.
func NewComboTable() *ComboTable { return &ComboTable{} }

// Reset empties the table. An empty table costs nothing to reset.
func (t *ComboTable) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch n := len(t.entries); {
	case n == 0:
	case n > maxComboEntries:
		t.entries, t.slab = nil, nil
	default:
		clear(t.entries)
		t.slab = t.slab[:0]
	}
}

// Len returns the number of combinations the table holds.
func (t *ComboTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Solves counts the contended combinations the table could not answer and
// sent to the solver state or the solver, over the table's lifetime.
func (t *ComboTable) Solves() uint64 {
	if t == nil {
		return 0
	}
	return t.solves.Load()
}

// keyOf builds the key of a combination; false when it is too wide to key.
func keyOf(features []*FeatureVector, assoc int, method SolverMethod) (comboKey, bool) {
	if len(features) > comboWidth {
		return comboKey{}, false
	}
	k := comboKey{assoc: assoc, method: method, n: len(features)}
	copy(k.f[:], features)
	return k, true
}

// get copies the recorded predictions of key into dst's backing array.
func (t *ComboTable) get(dst []Prediction, key *comboKey) ([]Prediction, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.entries[*key]
	if !ok {
		return dst, false
	}
	return append(dst[:0], t.slab[sp.off:sp.off+sp.n]...), true
}

// put records the predictions of a successful solve (a copy of them).
func (t *ComboTable) put(key *comboKey, preds []Prediction) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		t.entries = make(map[comboKey]comboSpan)
	}
	if _, ok := t.entries[*key]; ok {
		return
	}
	t.entries[*key] = comboSpan{int32(len(t.slab)), int32(len(preds))}
	t.slab = append(t.slab, preds...)
}

// PredictGroup is PredictGroupCached answered through t and written into
// dst's backing array, which the caller owns.
func (t *ComboTable) PredictGroup(ctx context.Context, dst []Prediction, features []*FeatureVector, assoc int, method SolverMethod, st *SolverState) ([]Prediction, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return predictInto(ctx, dst, features, assoc, method, st, t, ws)
}

// EstimateGroup is cm.EstimateGroupContext answered through t. The SPI
// terms are written into spi's backing array, which the caller owns.
func (t *ComboTable) EstimateGroup(ctx context.Context, cm *CombinedModel, asg Assignment, gi int, read Readout, spi []float64) (GroupEstimate, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return cm.estimateGroup(ctx, asg, cm.Machine.Groups[gi], solveEnv{table: t, ws: ws}, read, spi)
}

// solveEnv is what the solves under one Eq. 10 pass draw on: an assignment
// search's power table and an operation's combination table (either may be
// nil), and the caller's workspace (never nil).
type solveEnv struct {
	search *searchTable
	table  *ComboTable
	ws     *workspace
}

// workspace is the reusable memory of Eq. 10 passes and the equilibrium
// solves under them: one goroutine uses it at a time, and everything in it
// is scratch, dead once the call that used it returns.
type workspace struct {
	busy   []int
	combo  []*FeatureVector
	slot   []int
	preds  []Prediction
	newton []float64
	// next and ext spell out EstimateAdditionContext's tentative
	// assignment.
	next Assignment
	ext  []*FeatureVector
	// skey holds the solver-state key being probed: a probe builds it
	// here, and only a recorded solution makes it a string.
	skey []byte
}

var workspaces = cache.FreeList[workspace]{New: func() *workspace { return new(workspace) }}

func getWorkspace() *workspace { return workspaces.Get() }

// putWorkspace releases ws without the pointers it picked up, so a free
// workspace keeps no assignment alive.
func putWorkspace(ws *workspace) {
	clear(ws.combo[:cap(ws.combo)])
	clear(ws.preds[:cap(ws.preds)])
	clear(ws.next[:cap(ws.next)])
	clear(ws.ext[:cap(ws.ext)])
	workspaces.Put(ws)
}

// floats returns n zeroed floats of the workspace's solver scratch, or fresh
// ones for a nil workspace.
func (ws *workspace) floats(n int) []float64 {
	if ws == nil {
		return make([]float64, n)
	}
	ws.newton = slices.Grow(ws.newton[:0], n)[:n]
	clear(ws.newton)
	return ws.newton
}
