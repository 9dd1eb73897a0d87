// Package chaos is the fleet's deterministic fault-injection and
// invariant-checking subsystem.
//
// The scheduler stack (internal/fleet, internal/manager) exposes a single
// seam — an Intercept func consulted at named sites before each guarded
// operation — and this package supplies the injectors that drive it:
// Script injects faults at exact (site, key, occurrence) coordinates for
// unit tests, Seeded injects them pseudo-randomly but reproducibly from a
// seed for property tests, and the Harness (harness.go) replays a whole
// fleet scenario under scheduled fault classes — profiling errors and
// stalls, solver-path errors, machine loss mid-sim, context cancellation,
// queue pressure bursts — producing a transcript that is byte-identical
// across runs and worker counts for a fixed (seed, scenario).
//
// Everything an injector does is recorded in an event log, so a failing
// test names the exact injection sequence that produced it and the run
// replays from (seed, scenario) alone. The other half of the package is
// the Checker (invariants.go): the paper's model guarantees — Eq. 1 cache
// conservation, MPA monotonicity, Eq. 10 combination accounting — checked
// against live scheduler state after every event.
package chaos

import (
	"errors"
	"fmt"
	"sync"

	"mpmc/internal/xrand"
)

// Fault is an injected error. Injected failures are ordinary errors to the
// code under test — nothing in the scheduler stack is allowed to
// special-case them — but tests can tell them apart from organic failures
// with errors.As/IsFault.
type Fault struct {
	Site string // injection site, e.g. "fleet.profile"
	Key  string // operation key at the site, e.g. "m0/gzip"
}

func (f *Fault) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s [%s]", f.Site, f.Key)
}

// IsFault reports whether err is, or wraps, an injected fault — also
// through an error that wraps several causes, as a rolled-back group does.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// Event is one recorded injection decision.
type Event struct {
	Seq  int    `json:"seq"`
	Site string `json:"site"`
	Key  string `json:"key"`
}

// Log records every injection an injector makes, in decision order. Safe
// for concurrent use; note that under concurrent callers the order of
// entries follows the actual interleaving, so tests asserting on a Log
// should compare sets or counts unless the calls are serial.
type Log struct {
	mu     sync.Mutex
	events []Event
}

func (l *Log) add(site, key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{Seq: len(l.events), Site: site, Key: key})
}

// Events returns a copy of the recorded injections.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Len returns the number of recorded injections.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Script injects faults at exact scripted coordinates: the n-th consult
// (1-based) of a given (site, key) fails. Unmatched consults pass. The
// zero key scripts every key at the site. Safe for concurrent use.
type Script struct {
	mu   sync.Mutex
	plan map[string]map[int]bool
	seen map[string]int
	log  Log
}

// NewScript returns an empty script: every consult passes until Fail adds
// coordinates.
func NewScript() *Script {
	return &Script{plan: map[string]map[int]bool{}, seen: map[string]int{}}
}

func scriptKey(site, key string) string { return site + "\x00" + key }

// Fail schedules the listed occurrences (1-based) of (site, key) to fail.
// key "" matches every key at the site; its occurrence counter then counts
// site consults regardless of key.
func (s *Script) Fail(site, key string, occurrences ...int) *Script {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := scriptKey(site, key)
	if s.plan[k] == nil {
		s.plan[k] = map[int]bool{}
	}
	for _, o := range occurrences {
		s.plan[k][o] = true
	}
	return s
}

// Intercept is the seam implementation; wire it as fleet.Config.Intercept
// or manager.Options.Intercept.
func (s *Script) Intercept(site, key string) error {
	s.mu.Lock()
	var hit bool
	var hitKey string
	for _, k := range []string{scriptKey(site, key), scriptKey(site, "")} {
		if s.plan[k] == nil {
			continue
		}
		s.seen[k]++
		if s.plan[k][s.seen[k]] {
			hit, hitKey = true, key
		}
	}
	s.mu.Unlock()
	if hit {
		s.log.add(site, hitKey)
		return &Fault{Site: site, Key: key}
	}
	return nil
}

// Log exposes the injections the script has made so far.
func (s *Script) Log() *Log { return &s.log }

// Seeded injects faults pseudo-randomly but reproducibly: the decision for
// the n-th consult of a given (site, key) is a pure function of (seed,
// site, key, n), so a test that fails replays identically from its seed —
// independent of goroutine interleaving, because each (site, key) stream
// counts its own consults. Safe for concurrent use.
//
// Seeded is for unit and property tests. It is NOT the harness's sim
// injector: under the parallel engine's early-abort semantics, whether a
// given consult happens at all can depend on the worker count, so
// per-consult decisions cannot promise worker-count-invariant outcomes.
// The Harness arms faults per sim event instead (see harness.go).
type Seeded struct {
	seed uint64
	rate float64

	mu   sync.Mutex
	seen map[string]int
	log  Log
}

// NewSeeded returns an injector failing roughly rate of consults
// (0 disables, 1 fails every consult), decided reproducibly from seed.
func NewSeeded(seed uint64, rate float64) *Seeded {
	return &Seeded{seed: seed, rate: rate, seen: map[string]int{}}
}

// Intercept is the seam implementation.
func (s *Seeded) Intercept(site, key string) error {
	if s.rate <= 0 {
		return nil
	}
	k := scriptKey(site, key)
	s.mu.Lock()
	s.seen[k]++
	n := s.seen[k]
	s.mu.Unlock()
	// One throwaway SplitMix64 stream per decision: mix the coordinate
	// into the seed, then draw a single uniform.
	h := s.seed
	for _, b := range []byte(k) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	r := xrand.New(h ^ uint64(n)*0x9e3779b97f4a7c15)
	if r.Float64() < s.rate {
		s.log.add(site, key)
		return &Fault{Site: site, Key: key}
	}
	return nil
}

// Log exposes the injections made so far.
func (s *Seeded) Log() *Log { return &s.log }
