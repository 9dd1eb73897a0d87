package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"

	"mpmc/internal/fleet"
	"mpmc/internal/server"
	"mpmc/internal/threads"
	"mpmc/internal/workload"
)

// deck deals the integers 0..n-1 in seeded random order and reshuffles
// when it runs out, so every value appears equally often: the mix a run
// sees does not depend on how lucky its seed was.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	c := d.cards[d.next]
	d.next++
	return c
}

type reqKind int

const (
	kindPlace reqKind = iota // sync POST /v1/fleet/place {"benches":[...]}
	kindGroup                // sync POST with one thread group
	kindAsync                // async POST, then GET ticket?watch=1
	kindState                // GET /v1/fleet/state
)

// request is one generated operation before it meets a backend.
type request struct {
	kind    reqKind
	benches []string
	group   server.ThreadGroupSpec
	body    []byte           // POST body; nil for kindState
	specs   []*workload.Spec // what an engine backend resolved benches to
}

// ref names one placed instance.
type ref struct{ node, name string }

// stream generates one connection's request sequence from a seed.
type stream struct {
	cold    bool
	benches *deck
	kinds   *deck // cold mix, in twentieths
	shapes  *deck // thread-group (T, sigma) shapes
	suite   []*workload.Spec
}

var (
	groupThreads = []int{2, 4}
	groupShared  = []float64{0, 0.25, 0.5, 0.9}
)

const groupWriteFrac = 0.2

func newStream(seed int64, cold bool) *stream {
	rng := rand.New(rand.NewSource(seed))
	suite := workload.Suite()
	return &stream{
		cold:    cold,
		benches: newDeck(rng, len(suite)),
		kinds:   newDeck(rng, 20),
		shapes:  newDeck(rng, len(groupThreads)*len(groupShared)),
		suite:   suite,
	}
}

func (s *stream) bench() string { return s.suite[s.benches.draw()].Name }

// next generates the following request. The warm stream is single-bench
// sync placements; the cold stream is 50 % thread groups, 30 % three-bench
// transactional batches, 10 % async placements and 10 % state reads.
func (s *stream) next() *request {
	r := &request{kind: kindPlace}
	if s.cold {
		switch k := s.kinds.draw(); {
		case k < 10:
			r.kind = kindGroup
		case k < 16:
			r.kind = kindPlace
		case k < 18:
			r.kind = kindAsync
		default:
			r.kind = kindState
		}
	}
	var body any
	switch r.kind {
	case kindPlace:
		n := 1
		if s.cold {
			n = 3
		}
		for i := 0; i < n; i++ {
			r.benches = append(r.benches, s.bench())
		}
		body = server.FleetPlaceRequest{Benches: r.benches}
	case kindAsync:
		r.benches = []string{s.bench()}
		body = server.FleetPlaceRequest{Benches: r.benches, Async: true}
	case kindGroup:
		shape := s.shapes.draw()
		r.group = server.ThreadGroupSpec{
			Bench:      s.bench(),
			Threads:    groupThreads[shape%len(groupThreads)],
			SharedFrac: groupShared[shape/len(groupThreads)],
			WriteFrac:  groupWriteFrac,
		}
		body = server.FleetPlaceRequest{ThreadGroups: []server.ThreadGroupSpec{r.group}}
	case kindState:
		return r
	}
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	r.body = data
	return r
}

// backend executes requests at one depth of the stack: the live binary
// over loopback, the HTTP handler in-process, or the fleet engine.
type backend interface {
	// prepare does, off the clock, work that belongs to the layer above
	// the backend (the handler resolves names before it calls the fleet).
	prepare(r *request) error
	place(ctx context.Context, r *request) ([]ref, error)
	unplace(ctx context.Context, p ref) error
}

// unplacePath is the DELETE path for one instance. Instance names contain
// '#' (twolf#4), which a URL would otherwise read as a fragment.
func unplacePath(p ref) string {
	return "/v1/fleet/place/" + url.PathEscape(p.node) + "/" + url.PathEscape(p.name)
}

// placeRefs extracts the placed instances from a place or ticket response.
func placeRefs(kind reqKind, status int, body []byte) ([]ref, error) {
	var resp *server.FleetPlaceResponse
	switch {
	case kind == kindState && status == http.StatusOK:
		return nil, nil
	case kind == kindAsync && status == http.StatusOK:
		var tk server.TicketResponse
		if err := json.Unmarshal(body, &tk); err != nil {
			return nil, err
		}
		if tk.State != "placed" || tk.Result == nil {
			return nil, fmt.Errorf("ticket %s ended %s", tk.Ticket, tk.State)
		}
		resp = tk.Result
	case kind != kindAsync && status == http.StatusOK:
		resp = &server.FleetPlaceResponse{}
		if err := json.Unmarshal(body, resp); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	refs := make([]ref, len(resp.Placements))
	for i, p := range resp.Placements {
		refs[i] = ref{p.Node, p.Name}
	}
	return refs, nil
}

// httpBackend drives the live binary over one keep-alive connection.
type httpBackend struct {
	base   string
	client *http.Client
}

func newHTTPBackend(base string) *httpBackend {
	return &httpBackend{base: base, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

func (b *httpBackend) close() { b.client.CloseIdleConnections() }

func (b *httpBackend) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (b *httpBackend) prepare(*request) error { return nil }

func (b *httpBackend) place(ctx context.Context, r *request) ([]ref, error) {
	return placeVia(ctx, b.do, r)
}

func (b *httpBackend) unplace(ctx context.Context, p ref) error {
	return unplaceVia(ctx, b.do, p)
}

// doFunc performs one HTTP exchange.
type doFunc func(ctx context.Context, method, path string, body []byte) (int, []byte, error)

func placeVia(ctx context.Context, do doFunc, r *request) ([]ref, error) {
	if r.kind == kindState {
		status, body, err := do(ctx, http.MethodGet, "/v1/fleet/state", nil)
		if err != nil {
			return nil, err
		}
		return placeRefs(r.kind, status, body)
	}
	status, body, err := do(ctx, http.MethodPost, "/v1/fleet/place", r.body)
	if err != nil {
		return nil, err
	}
	if r.kind == kindAsync {
		if status != http.StatusAccepted {
			return nil, fmt.Errorf("async place: status %d: %s", status, bytes.TrimSpace(body))
		}
		var tk server.TicketResponse
		if err := json.Unmarshal(body, &tk); err != nil {
			return nil, err
		}
		if status, body, err = do(ctx, http.MethodGet, tk.Watch, nil); err != nil {
			return nil, err
		}
	}
	return placeRefs(r.kind, status, body)
}

func unplaceVia(ctx context.Context, do doFunc, p ref) error {
	status, body, err := do(ctx, http.MethodDelete, unplacePath(p), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("unplace %s/%s: status %d: %s", p.node, p.name, status, bytes.TrimSpace(body))
	}
	return nil
}

// handlerBackend calls server.Handler() in-process on a recorder: the same
// bodies, no sockets.
type handlerBackend struct{ h http.Handler }

func (b handlerBackend) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd).WithContext(ctx)
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

func (b handlerBackend) prepare(*request) error { return nil }

func (b handlerBackend) place(ctx context.Context, r *request) ([]ref, error) {
	return placeVia(ctx, b.do, r)
}

func (b handlerBackend) unplace(ctx context.Context, p ref) error {
	return unplaceVia(ctx, b.do, p)
}

// engine is the part of the fleet API both *fleet.Fleet and *fleet.Sharded
// offer and the benchmark drives.
type engine interface {
	server.FleetBackend
	Inspect() []fleet.NodeInspection
}

// engineBackend calls the fleet engine the way the handlers do: PlaceAll
// for sync and async batches, PlaceGroup for thread groups, State for
// reads. single switches one-bench placements to PlaceWith, the path the
// repo's older benchmarks time. byName resolves a benchmark name: the
// handlers use workload.ByName, which builds a fresh *workload.Spec per
// call, so the fleet's pointer-keyed caches see every request as new; a
// caller that holds its specs (the fleet simulation) passes a lookup that
// returns the same pointer every time.
type engineBackend struct {
	e      engine
	single bool
	byName func(string) *workload.Spec
}

func (b engineBackend) prepare(r *request) error {
	names := r.benches
	if r.kind == kindGroup {
		names = []string{r.group.Bench}
	}
	r.specs = make([]*workload.Spec, len(names))
	for i, name := range names {
		if r.specs[i] = b.byName(name); r.specs[i] == nil {
			return errors.New("unknown benchmark " + name)
		}
	}
	return nil
}

func (b engineBackend) place(ctx context.Context, r *request) ([]ref, error) {
	var placed []fleet.Placed
	var err error
	switch {
	case r.kind == kindState:
		_, err = b.e.State(ctx)
		return nil, err
	case r.kind == kindGroup:
		placed, err = b.e.PlaceGroup(ctx, threads.GroupSpec{
			Base:       r.specs[0],
			Threads:    r.group.Threads,
			SharedFrac: r.group.SharedFrac,
			WriteFrac:  r.group.WriteFrac,
		})
	case b.single && len(r.specs) == 1:
		var p fleet.Placed
		p, err = b.e.PlaceWith(ctx, r.specs[0], fleet.PlaceOptions{})
		placed = []fleet.Placed{p}
	default:
		placed, err = b.e.PlaceAll(ctx, r.specs)
	}
	if err != nil {
		return nil, err
	}
	refs := make([]ref, len(placed))
	for i, p := range placed {
		refs[i] = ref{p.Node, p.Name}
	}
	return refs, nil
}

func (b engineBackend) unplace(ctx context.Context, p ref) error {
	_, err := b.e.Remove(ctx, p.node, p.name)
	return err
}
