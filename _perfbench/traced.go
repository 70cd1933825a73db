package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/serve"
	"github.com/gamma-suite/gamma/internal/stats"
)

// shardedN is the shard count of the traced sharded serving pass.
const shardedN = 4

// tracedRun is the per-layer run, on world 0 of the seed. Whatever the
// workload, it runs every phase, so every per-layer metric is measured:
// composed studies and reloads, each alternating untraced and traced, and
// the serve mix through the monolithic store and through a ShardSet. The
// named workload's phase runs for --seconds; the others run once. Tracing
// overhead is the traced median minus the untraced median of one phase.
type tracedRun struct {
	cfg         config
	tr          *tracer
	op          int // ID of the last traced operation
	t           tally
	m           map[string]metric
	worldAllocs []float64 // per NewWorld call, in both phases
}

func runTraced(cfg config) (report, error) {
	r := &tracedRun{cfg: cfg, tr: newTracer(), m: map[string]metric{}}
	// The GC share covers the study and ingest phases, including the
	// collections that settle the heap between ops.
	settle()
	g0 := readRuntime()
	st, err := r.study()
	if err != nil {
		return report{}, err
	}
	if err := r.ingest(st); err != nil {
		return report{}, err
	}
	g1 := readRuntime()
	r.set("runtime.gc_cpu_frac", ratio(g1.gcCPU-g0.gcCPU, g1.used-g0.used), "ratio")
	r.set("worldgen.allocs", stats.Quantile(r.worldAllocs, 0.5), "count")
	r.spanMetrics()
	if err := r.tr.write(cfg.spanFile); err != nil {
		return report{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(r.tr.snapshot()), cfg.spanFile)
	if err := r.serve(); err != nil {
		return report{}, err
	}
	return finish(r.t, r.m), nil
}

func (r *tracedRun) set(name string, v float64, unit string) { r.m[name] = metric{v, unit} }

func (r *tracedRun) budget(workload string) time.Duration {
	if r.cfg.workload == workload {
		return r.cfg.seconds
	}
	return 0
}

// study runs one RunStudy op, which gives the reference digest, the
// funnel counts and the datasets the ingest phase reloads. It then
// alternates untraced and traced composed studies with timed RunStudy
// ops, whose scheduler counters give the sched figures.
func (r *tracedRun) study() (*gamma.Study, error) {
	ctx := context.Background()
	st, err := studyOp(ctx, r.cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	want, err := digest(st.Result)
	if err != nil {
		return nil, err
	}
	var plain, traced, slowest, runMs, volunteerMs []float64
	var comp *composed
	for start := time.Now(); len(traced) == 0 || time.Since(start) < r.budget("study"); {
		for _, tr := range []*tracer{nil, r.tr} {
			settle()
			if tr != nil {
				r.op++
			}
			t0 := time.Now()
			c, err := composeStudy(ctx, r.cfg.seed, tr, r.op)
			ms := msSince(t0)
			if err != nil {
				return nil, fmt.Errorf("composed study: %w", err)
			}
			r.t.add(sameResult(c.result, want))
			if tr == nil {
				plain = append(plain, ms)
				continue
			}
			traced = append(traced, ms)
			comp = c
			slowest = append(slowest, c.slowestMs)
			r.worldAllocs = append(r.worldAllocs, float64(c.allocsW))
		}
		settle()
		t0 := time.Now()
		s, err := studyOp(ctx, r.cfg.seed)
		ms := msSince(t0)
		if err != nil {
			return nil, fmt.Errorf("study: %w", err)
		}
		r.t.add(sameResult(s.Result, want))
		runMs = append(runMs, ms)
		volunteerMs = append(volunteerMs, float64(s.Sched.TotalLatency.Nanoseconds())/1e6)
	}
	r.set("trace.study_ops", float64(len(traced)), "count")
	r.set("trace.study_overhead_ms", stats.Quantile(traced, 0.5)-stats.Quantile(plain, 0.5), "ms")
	r.set("core.volunteer_max_ms", stats.Quantile(slowest, 0.5), "ms")
	r.set("sched.busy_frac", r.schedBusy(runMs, volunteerMs), "ratio")
	r.set("sched.attempts", float64(st.Sched.Attempts), "count")
	r.set("sched.retries", float64(st.Sched.Retries), "count")
	r.set("sched.failed", float64(st.Sched.Failed), "count")
	r.set("pipeline.trackers", float64(st.Result.Funnel.Trackers), "count")
	r.set("pipeline.nonlocal_claimed", float64(st.Result.Funnel.NonLocalClaimed), "count")
	r.setCacheMetrics(comp.world)
	return st, nil
}

// schedBusy is how busy RunStudy's own volunteer pool keeps its workers:
// the volunteer time the scheduler sums (Stats.TotalLatency) over the
// pool phase's wall time times the workers, the median over RunStudy
// ops. RunStudy runs its phases inside one call, so the pool phase is
// its wall time less the median NewWorld, SelectTargets and Analyze
// spans of the traced composed studies, which do the same work. That
// makes it an estimate, which can read a few hundredths above 1.
func (r *tracedRun) schedBusy(runMs, volunteerMs []float64) float64 {
	ls := collectLayers(r.tr.snapshot())
	outside := 0.0
	for _, name := range []string{"worldgen.build", "targets.select", "pipeline.analyze"} {
		outside += stats.Quantile(ls.dur[name], 0.5)
	}
	workers := float64(runtime.GOMAXPROCS(0))
	busy := make([]float64, len(runMs))
	for i, ms := range runMs {
		busy[i] = ratio(volunteerMs[i], (ms-outside)*workers)
	}
	return stats.Quantile(busy, 0.5)
}

// ingest reloads the study's datasets, alternating untraced and traced.
func (r *tracedRun) ingest(st *gamma.Study) error {
	iw, snap, err := writeIngestWorld(st, r.cfg.seed, filepath.Join(r.cfg.workDir, "data"))
	if err != nil {
		return fmt.Errorf("ingest set-up: %w", err)
	}
	store, err := serve.NewStore(snap)
	if err != nil {
		return err
	}
	var plain, traced, loadMBps, loadAllocs []float64
	for start := time.Now(); len(traced) == 0 || time.Since(start) < r.budget("ingest"); {
		for _, tr := range []*tracer{nil, r.tr} {
			settle()
			if tr != nil {
				r.op++
			}
			t0 := time.Now()
			s, cost, err := reload(iw, store, tr, r.op)
			ms := msSince(t0)
			if err == nil {
				err = checkReload(s, iw, store)
			}
			r.t.add(err)
			if tr == nil {
				plain = append(plain, ms)
				continue
			}
			traced = append(traced, ms)
			if err != nil {
				continue
			}
			snap = s
			loadMBps = append(loadMBps, float64(iw.bytes)/(1<<20)/cost.load.Seconds())
			loadAllocs = append(loadAllocs, float64(cost.loadAllocs))
			r.worldAllocs = append(r.worldAllocs, float64(cost.worldAllocs))
		}
	}
	if len(loadMBps) == 0 {
		return fmt.Errorf("no traced reload succeeded: %v", r.t.firstErr)
	}
	r.set("trace.reload_ops", float64(len(traced)), "count")
	r.set("trace.reload_overhead_ms", stats.Quantile(traced, 0.5)-stats.Quantile(plain, 0.5), "ms")
	r.set("core.load_mb_per_s", stats.Quantile(loadMBps, 0.5), "MB/s")
	r.set("core.load_allocs", stats.Quantile(loadAllocs, 0.5), "count")
	var bodyBytes int
	eps := snap.Endpoints()
	for _, ep := range eps {
		b, _ := snap.Body(ep)
		bodyBytes += len(b)
	}
	r.set("serve.endpoints", float64(len(eps)), "count")
	r.set("serve.body_mb", float64(bodyBytes)/(1<<20), "MB")
	return nil
}

// spanMetrics reports layer times over every traced call in the study
// and ingest phases: the median duration of each layer's spans, and the
// median self time of the spans that have children.
func (r *tracedRun) spanMetrics() {
	ls := collectLayers(r.tr.snapshot())
	for _, l := range []struct{ metric, span string }{
		{"worldgen.build_ms", "worldgen.build"},
		{"targets.select_ms", "targets.select"},
		{"core.volunteer_p50_ms", "core.volunteer"},
		{"pipeline.analyze_ms", "pipeline.analyze"},
		{"core.load_ms", "core.load"},
		{"serve.build_ms", "serve.build"},
		{"serve.install_ms", "serve.install"},
	} {
		r.set(l.metric, stats.Quantile(ls.dur[l.span], 0.5), "ms")
	}
	for _, l := range []struct{ metric, span string }{
		{"study.self_ms", "study"},
		{"ingest.self_ms", "ingest"},
	} {
		r.set(l.metric, stats.Quantile(ls.self[l.span], 0.5), "ms")
	}
}

// serve runs the mix through the monolithic store, then through a
// ShardSet holding the same two generations, and reports each request
// class's p50 and p99.
func (r *tracedRun) serve() error {
	settle()
	live, err := worldSnapshot(r.cfg.seed, 0)
	var older *serve.Snapshot
	if err == nil {
		older, err = worldSnapshot(r.cfg.seed, 1)
	}
	var in *serveInput
	if err == nil {
		in, err = newServeInput(live, older)
	}
	if err != nil {
		return fmt.Errorf("serve set-up: %w", err)
	}
	mixTime := max(r.budget("serve")/2, warmup)
	mono, err := tracedMix(r.cfg.seed, serve.New(in.store, serve.Options{}), in.live.Body, in, mixTime)
	if err != nil {
		return err
	}
	shards, err := serve.NewShardSet(in.older, shardedN)
	if err != nil {
		return err
	}
	if err := shards.Install(in.live); err != nil {
		return err
	}
	if err := sameBodies(shards, in.live); err != nil {
		return err
	}
	sharded, err := tracedMix(r.cfg.seed, serve.NewSharded(shards, serve.Options{}), shards.Body, in, mixTime)
	if err != nil {
		return err
	}
	for _, res := range []*mixResult{mono, sharded} {
		r.t.attempted += res.requests
		r.t.failed += res.failed
		if res.failed > 0 && r.t.firstErr == nil {
			r.t.firstErr = fmt.Errorf("%d responses had the wrong status or body", res.failed)
		}
	}
	for c, name := range classNames {
		for _, v := range []struct {
			prefix string
			h      *hist
		}{{"serve.", &mono.byClass[c]}, {"serve.sharded_", &sharded.byClass[c]}} {
			if !v.h.supported(0.99) {
				return fmt.Errorf("%s%s: %d samples cannot support a p99", v.prefix, name, v.h.n)
			}
			r.set(v.prefix+name+"_p50_us", v.h.quantile(0.5)/1e3, "us")
			r.set(v.prefix+name+"_p99_us", v.h.quantile(0.99)/1e3, "us")
		}
	}
	r.set("latency_p99_us", mono.all.quantile(0.99)/1e3, "us")
	r.set("trace.requests", float64(mono.requests), "count")
	return nil
}

// tracedMix prepares nproc callers for srv, warms up and runs the mix.
func tracedMix(seed uint64, srv http.Handler, live bodySource, in *serveInput, d time.Duration) (*mixResult, error) {
	m, err := prepareMix(seed, srv, live, in)
	if err != nil {
		return nil, err
	}
	m.run(srv, warmup, nil)
	settle()
	res := new(mixResult)
	m.run(srv, d, res)
	return res, nil
}

// sameBodies checks that a ShardSet serves the monolithic snapshot's
// bytes on every endpoint before its buffers become the per-request
// reference.
func sameBodies(set *serve.ShardSet, snap *serve.Snapshot) error {
	for _, ep := range snap.Endpoints() {
		want, _ := snap.Body(ep)
		got, ok := set.Body(ep)
		if !ok || !bytes.Equal(got, want) {
			return fmt.Errorf("sharded body for %s differs from the monolithic one", ep)
		}
	}
	return nil
}

// setCacheMetrics reports each measurement-plane memo of a study's world
// as lookups, derivations and the share of lookups that did not derive.
// Hits alone can vary with scheduling (two concurrent misses of one key
// derive once), while lookups and derivations repeat exactly per seed.
func (r *tracedRun) setCacheMetrics(w *gamma.World) {
	path := w.Net.PathCacheStats()
	parse := w.Pages.Stats()
	dns := w.DNS.ResolveMemoStats()
	page := w.Web.PageCacheStats()
	for _, c := range []struct {
		name                 string
		hits, misses, derive uint64
	}{
		{"netsim.path", path.Hits, path.Misses, path.Derivations},
		{"browser.parse", parse.Hits, parse.Misses, parse.Derivations},
		{"dnssim.resolve", dns.Hits, dns.Misses, dns.Derivations},
		{"websim.page", page.Hits, page.Misses, page.Derivations},
	} {
		lookups := float64(c.hits + c.misses)
		r.set(c.name+"_lookups", lookups, "count")
		r.set(c.name+"_derivations", float64(c.derive), "count")
		r.set(c.name+"_hit_ratio", ratio(lookups-float64(c.derive), lookups), "ratio")
	}
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
