package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/serve"
	"github.com/gamma-suite/gamma/internal/stats"
)

// Request classes of the serve mix. No gammad access log exists to
// weight them, so each class gets the same share of requests: a change
// to any one class moves the end-to-end figures by the same amount. Only
// historical reads allocate (url.ParseQuery of ?snapshot=), so their
// fifth share alone sets allocs_per_op. Keys within the keyed,
// not_modified and historical classes follow a Zipf law over a seeded
// permutation, so that a few countries and tracker domains are hot; the
// skew is likewise an assumption, not a measurement.
const (
	classKeyed = iota
	classListing
	classFigure
	classNotModified
	classHistorical
	nClasses
)

var classNames = [nClasses]string{"keyed", "listing", "figure", "not_modified", "historical"}

const (
	seqLen   = 4096 // prepared requests per caller, replayed in order
	warmup   = 500 * time.Millisecond
	zipfSkew = 1.1 // the smallest round skew above 1, which rand.Zipf needs
	// serveWorlds is how many worlds a serve run spends equal time on.
	// Snapshot size, and with it the heap, varies by a tenth from world
	// to world; the mean over four halves that.
	serveWorlds = 4
)

// serveInput is gammad's default monolithic store holding one world's
// full-study snapshot plus one older generation, another world's.
type serveInput struct {
	live, older *serve.Snapshot
	store       *serve.Store
}

func newServeInput(live, older *serve.Snapshot) (*serveInput, error) {
	store, err := serve.NewStore(older)
	if err != nil {
		return nil, err
	}
	return &serveInput{live: live, older: older, store: store}, store.Install(live)
}

// worldSnapshot runs world k's study and builds its snapshot.
func worldSnapshot(seed uint64, k int) (*serve.Snapshot, error) {
	st, err := studyOp(context.Background(), worldSeed(seed, k))
	if err != nil {
		return nil, err
	}
	meta := serve.Meta{ID: fmt.Sprintf("world-%d", k)}
	return serve.Build(st.Result, st.World.Registry, gamma.PolicyRegistry(st.World), meta)
}

// request is one prepared request and the response it must get.
type request struct {
	r      *http.Request
	class  int
	status int
	body   []byte // the backend's own buffer for this path
}

// recorder is a reusable ResponseWriter that keeps a reference to the
// written body instead of copying it.
type recorder struct {
	h      http.Header
	status int
	body   []byte
	n      int
}

func (w *recorder) Header() http.Header { return w.h }

func (w *recorder) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.n == 0 {
		w.body = p
	}
	w.n += len(p)
	return len(p), nil
}

// check reports whether the recorded response is the expected one. The
// server writes the payload's own buffer, so a body check is usually a
// pointer comparison; anything else falls back to comparing bytes.
func (q *request) check(w *recorder) bool {
	if w.status != q.status || w.n != len(q.body) {
		return false
	}
	if len(q.body) == 0 {
		return true
	}
	return len(w.body) == len(q.body) && (&w.body[0] == &q.body[0] || bytes.Equal(w.body, q.body))
}

// bodySource resolves the body a backend should serve for a path.
type bodySource func(path string) ([]byte, bool)

// buildMix prepares one caller's seeded request sequence against srv,
// whose live bodies come from live and whose older generation is older.
// Requests for the same target and validator are one shared, read-only
// *http.Request (reqs), so the prepared load stays small next to the
// store it measures.
func buildMix(seed uint64, caller int, srv http.Handler, live bodySource, in *serveInput, reqs map[string]*http.Request) ([]request, error) {
	r := rand.New(rand.NewPCG(seed, uint64(caller)+0x5e7e))
	liveKeys := keyedPaths(in.live, r)
	olderKeys := keyedPaths(in.older, r)
	var figures []string
	for _, ep := range in.live.Endpoints() {
		if strings.HasPrefix(ep, "/v1/figures/") {
			figures = append(figures, ep)
		}
	}
	listings := []string{"/v1/countries", "/v1/flows"}
	zl := rand.NewZipf(r, zipfSkew, 1, uint64(len(liveKeys)-1))
	zo := rand.NewZipf(r, zipfSkew, 1, uint64(len(olderKeys)-1))
	etags := map[string]string{}

	seq := make([]request, seqLen)
	for i, c := range classSequence(r) {
		var path, inm string
		src, status := live, http.StatusOK
		switch c {
		case classKeyed:
			path = liveKeys[zl.Uint64()]
		case classListing:
			path = listings[r.IntN(len(listings))]
		case classFigure:
			path = figures[r.IntN(len(figures))]
		case classNotModified:
			path, status = liveKeys[zl.Uint64()], http.StatusNotModified
			tag, ok := etags[path]
			if !ok {
				var err error
				if tag, err = etagOf(srv, path); err != nil {
					return nil, err
				}
				etags[path] = tag
			}
			inm = tag
		case classHistorical:
			path, src = olderKeys[zo.Uint64()], in.older.Body
		}
		body, ok := src(path)
		if !ok {
			return nil, fmt.Errorf("no body for %s", path)
		}
		target := path
		if c == classHistorical {
			target += "?snapshot=" + in.older.Meta().ID
		}
		if c == classNotModified {
			body = nil
		}
		req, ok := reqs[target+"\x00"+inm]
		if !ok {
			req = httptest.NewRequest(http.MethodGet, target, nil)
			if inm != "" {
				req.Header.Set("If-None-Match", inm)
			}
			reqs[target+"\x00"+inm] = req
		}
		seq[i] = request{r: req, class: c, status: status, body: body}
	}
	return seq, nil
}

// classSequence deals every class the same share of seqLen requests,
// within one, in a seeded order, so that every run sends the same mix.
func classSequence(r *rand.Rand) []int {
	out := make([]int, seqLen)
	for i := range out {
		out[i] = i % nClasses
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// keyedPaths lists a snapshot's per-country and per-tracker paths in a
// seeded order, so the Zipf head lands on different keys per seed.
func keyedPaths(s *serve.Snapshot, r *rand.Rand) []string {
	var out []string
	for _, ep := range s.Endpoints() {
		if strings.HasPrefix(ep, "/v1/countries/") || strings.HasPrefix(ep, "/v1/trackers/") {
			out = append(out, ep)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func etagOf(srv http.Handler, path string) (string, error) {
	w := &recorder{h: http.Header{}}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	tag := w.h.Get("Etag")
	if w.status != http.StatusOK || tag == "" {
		return "", fmt.Errorf("GET %s: status %d, etag %q", path, w.status, tag)
	}
	return tag, nil
}

// mixResult aggregates timed passes of every caller.
type mixResult struct {
	byClass  [nClasses]hist
	all      hist
	requests int
	failed   int
	wall     time.Duration
	allocs   uint64
}

// callerOut is one caller's writer and counters. Each lives in its own
// large allocation: two small writers could share a cache line, and the
// callers would then slow each other down on every request.
type callerOut struct {
	h         [nClasses]hist
	w         recorder
	n, failed int
}

// mix is a prepared closed-loop load: one request sequence and one
// output per caller, all allocated before any pass, so that a timed pass
// allocates nothing of the benchmark's own.
type mix struct {
	seqs [][]request
	outs []*callerOut
}

// prepareMix builds nproc callers' sequences for srv.
func prepareMix(seed uint64, srv http.Handler, live bodySource, in *serveInput) (*mix, error) {
	m := &mix{seqs: make([][]request, runtime.GOMAXPROCS(0))}
	reqs := map[string]*http.Request{}
	for i := range m.seqs {
		var err error
		if m.seqs[i], err = buildMix(seed, i, srv, live, in, reqs); err != nil {
			return nil, err
		}
		m.outs = append(m.outs, &callerOut{w: recorder{h: make(http.Header, 8)}})
	}
	return m, nil
}

// run runs one closed-loop caller per sequence against srv for d and,
// unless into is nil, adds the pass to it. Each caller times every
// request and checks it after the clock has stopped.
func (m *mix) run(srv http.Handler, d time.Duration, into *mixResult) {
	for _, o := range m.outs {
		o.h = [nClasses]hist{}
		o.n, o.failed = 0, 0
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	a0 := readRuntime().allocs
	t0 := time.Now()
	for i := range m.seqs {
		wg.Add(1)
		go func(seq []request, out *callerOut) {
			defer wg.Done()
			w := &out.w
			for j := 0; ; j++ {
				if j&255 == 0 && stop.Load() {
					return
				}
				q := &seq[j%len(seq)]
				w.status, w.body, w.n = 0, nil, 0
				s := time.Now()
				srv.ServeHTTP(w, q.r)
				out.h[q.class].record(time.Since(s))
				out.n++
				if !q.check(w) {
					out.failed++
				}
			}
		}(m.seqs[i], m.outs[i])
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	wall, allocs := time.Since(t0), readRuntime().allocs-a0
	if into == nil {
		return
	}
	into.wall += wall
	into.allocs += allocs
	for _, o := range m.outs {
		for c := range o.h {
			into.byClass[c].merge(&o.h[c])
			into.all.merge(&o.h[c])
		}
		into.requests += o.n
		into.failed += o.failed
	}
}

// runServe measures the read mix on the monolithic store, spending equal
// time on each of serveWorlds worlds: world k serves live with world k+1
// as its older generation. Each world's snapshot is built just before its
// first use, so the heap holds only the store being measured; each build
// is one set-up. The heap peak of a world leaves out what the benchmark
// itself holds: the live bytes its prepared mix adds, measured after a
// settled collection.
func runServe(cfg config) (report, error) {
	var setup []float64
	build := func(k int) (*serve.Snapshot, error) {
		settle()
		t0 := time.Now()
		snap, err := worldSnapshot(cfg.seed, k)
		setup = append(setup, time.Since(t0).Seconds())
		return snap, err
	}
	live, err := build(0)
	if err != nil {
		return report{}, fmt.Errorf("serve set-up: %w", err)
	}
	total := new(mixResult)
	var peaks []float64
	for k := 0; k < serveWorlds; k++ {
		older, err := build(k + 1)
		if err != nil {
			return report{}, fmt.Errorf("serve set-up: %w", err)
		}
		in, err := newServeInput(live, older)
		if err != nil {
			return report{}, err
		}
		srv := serve.New(in.store, serve.Options{})
		settle()
		base := liveHeap()
		m, err := prepareMix(cfg.seed, srv, in.live.Body, in)
		if err != nil {
			return report{}, err
		}
		m.run(srv, warmup, nil)
		settle()
		own := liveHeap() - base
		fmt.Fprintf(os.Stderr, "perfbench: world %d: %.2f MB of prepared requests and histograms left out of heap_peak_mb\n", k, own/(1<<20))
		heap := startHeapSampler()
		m.run(srv, cfg.seconds/serveWorlds, total)
		peaks = append(peaks, heap.take()-own)
		heap.finish()
		live = older
	}
	t := tally{attempted: total.requests, failed: total.failed}
	if total.failed > 0 {
		t.firstErr = fmt.Errorf("%d responses had the wrong status or body", total.failed)
	}
	return finish(t, endToEnd(setup, total.all.quantile(0.5)/1e3,
		float64(total.requests)/total.wall.Seconds(), perOp(total.allocs, total.requests), stats.Mean(peaks))), nil
}
