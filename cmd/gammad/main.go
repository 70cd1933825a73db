// Command gammad is the query daemon over analyzed tracking-flow corpora:
// it builds an immutable serving snapshot (from a simulated study or a
// directory of uploaded volunteer datasets), then answers the /v1 API
// from precomputed payloads — zero allocations per request — with
// zero-downtime hot reloads via POST /admin/reload.
//
// Usage:
//
//	gammad -seed 42 -addr :8080              # serve a simulated study
//	gammad -seed 42 -data ./uploads          # serve analyzed datasets
//	gammad -seed 42 -shards 4                # partition across 4 swappable shards
//	gammad -seed 42 -selfcheck               # boot, probe every endpoint, exit
//	gammad -seed 42 -selfcheck -shards 4     # same, scatter-gather vs monolithic oracle
//
// Endpoints:
//
//	GET  /v1/countries            all source countries, summarized
//	GET  /v1/countries/{cc}       one country's full profile
//	GET  /v1/trackers             all cross-border tracker domains
//	GET  /v1/trackers/{domain}    reverse index: who observes this tracker
//	GET  /v1/flows                country/continent/organization flow matrices
//	GET  /v1/figures              figure ids
//	GET  /v1/figures/{id}         one paper figure's data payload
//	GET  /v1/snapshots            the addressable snapshot history, newest first
//	GET  /healthz                 liveness
//	GET  /debug/metrics           per-endpoint counters + latency histograms + breaker states
//	POST /admin/reload[?seed=N]   rebuild and atomically swap the snapshot
//	POST /admin/rollback          restore the previously installed snapshot
//
// Any /v1 read accepts ?snapshot=<id> to serve from a still-retained
// historical generation (-history controls the ring depth). Reloads are
// validation-gated twice: a failed rebuild or an invalid replacement
// reports 422 with the current snapshot still serving, and a replacement
// that installs but fails the post-install self-probe is auto-rolled
// back. When sharded, each shard sits behind a circuit breaker
// (-breaker-failures / -breaker-cooldown): while a shard's circuit is
// open, listings serve a deterministic surviving-shards merge marked
// with the Gamma-Degraded header, and single-key requests owned by the
// open shard return 503 with Retry-After. SIGINT/SIGTERM drain in-flight
// requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/sched"
	"github.com/gamma-suite/gamma/internal/serve"
)

// config gathers the daemon's flag-driven knobs.
type config struct {
	addr        string
	seed        uint64
	dataDir     string
	workers     int
	shards      int
	maxInflight int
	acquire     time.Duration
	drain       time.Duration
	selfcheck   bool

	history         int
	breakerFailures int
	breakerCooldown time.Duration
	shardDeadline   time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Uint64Var(&cfg.seed, "seed", 42, "world seed (and dataset analysis seed)")
	flag.StringVar(&cfg.dataDir, "data", "", "directory of volunteer dataset JSON files; empty simulates the full study")
	flag.IntVar(&cfg.workers, "workers", 0, "worker pool size for study/analysis; 0 = GOMAXPROCS")
	flag.IntVar(&cfg.shards, "shards", 1, "partition the snapshot across N independently-swappable shards; 1 serves monolithic")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 256, "concurrent request limit before load-shedding")
	flag.DurationVar(&cfg.acquire, "acquire-timeout", time.Second, "how long a request may wait for admission before 503")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful shutdown drain window")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "boot on an ephemeral port, probe every endpoint against the snapshot, reload, exit")
	flag.IntVar(&cfg.history, "history", serve.DefaultHistoryDepth, "installed snapshots kept addressable for ?snapshot= reads and rollback")
	flag.IntVar(&cfg.breakerFailures, "breaker-failures", 0, "consecutive shard failures that open its circuit; 0 = default (5)")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", 0, "open-circuit cooldown before a half-open trial; 0 = default (10s)")
	flag.DurationVar(&cfg.shardDeadline, "shard-deadline", 0, "per-request budget for one shard read; 0 = default (100ms)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gammad:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.shards < 1 || cfg.shards > serve.MaxShards {
		return fmt.Errorf("-shards %d outside [1, %d]", cfg.shards, serve.MaxShards)
	}
	fmt.Fprintf(os.Stderr, "gammad: building snapshot %s...\n", snapshotID(cfg.seed, cfg.dataDir))
	snap, err := buildSnapshot(context.Background(), cfg.seed, cfg.dataDir, cfg.workers)
	if err != nil {
		return err
	}
	opts := serve.Options{
		MaxConcurrent:  cfg.maxInflight,
		AcquireTimeout: cfg.acquire,
		Reload: func(ctx context.Context, params url.Values) (*serve.Snapshot, error) {
			s := cfg.seed
			if raw := params.Get("seed"); raw != "" {
				v, err := strconv.ParseUint(raw, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad seed %q: %w", raw, err)
				}
				s = v
			}
			return buildSnapshot(ctx, s, cfg.dataDir, cfg.workers)
		},
	}
	// The same reloader feeds both backends: a sharded install
	// re-partitions the reloaded snapshot across the set shard by shard.
	var srv *serve.Server
	if cfg.shards > 1 {
		set, err := serve.NewShardSetWithOptions(snap, cfg.shards, serve.ShardSetOptions{
			Breaker: sched.BreakerConfig{
				FailureThreshold: cfg.breakerFailures,
				Cooldown:         cfg.breakerCooldown,
			},
			LoadBudget:   cfg.shardDeadline,
			HistoryDepth: cfg.history,
		})
		if err != nil {
			return err
		}
		srv = serve.NewSharded(set, opts)
	} else {
		store, err := serve.NewStoreWithOptions(snap, serve.StoreOptions{HistoryDepth: cfg.history})
		if err != nil {
			return err
		}
		srv = serve.New(store, opts)
	}
	fmt.Fprintf(os.Stderr, "gammad: snapshot %s ready: %d countries, %d tracker domains, %d endpoints, %d shard(s)\n",
		snap.Meta().ID, len(snap.CountryCodes()), len(snap.TrackerDomains()), len(snap.Endpoints()), cfg.shards)

	if cfg.selfcheck {
		return runSelfcheck(srv, snap, cfg.shards)
	}

	hs := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "gammad: listening on %s\n", cfg.addr)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "gammad: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "gammad: drained, bye")
	return nil
}

// snapshotID names a snapshot's provenance for the X-Gamma-Snapshot
// header and /debug/metrics.
func snapshotID(seed uint64, dataDir string) string {
	if dataDir != "" {
		return fmt.Sprintf("data-%s@seed-%d", filepath.Clean(dataDir), seed)
	}
	return fmt.Sprintf("seed-%d", seed)
}

// buildSnapshot produces a serving snapshot: from the datasets in dataDir
// when given, else from a full simulated study at seed. Response bodies
// depend only on (seed, datasets), so a same-input rebuild is
// byte-identical — the property the selfcheck's reload probe asserts.
func buildSnapshot(ctx context.Context, seed uint64, dataDir string, workers int) (*serve.Snapshot, error) {
	meta := serve.Meta{ID: snapshotID(seed, dataDir), BuiltAt: sched.Wall().Now()}
	if dataDir == "" {
		study, err := gamma.RunStudyWithOptions(ctx, seed, gamma.StudyOptions{
			Workers:         workers,
			AnalysisWorkers: workers,
		})
		if err != nil {
			return nil, err
		}
		return serve.Build(study.Result, study.World.Registry, gamma.PolicyRegistry(study.World), meta)
	}
	datasets, err := core.LoadDir(dataDir)
	if err != nil {
		return nil, err
	}
	w, err := gamma.NewWorld(seed)
	if err != nil {
		return nil, err
	}
	res, err := gamma.AnalyzeWithWorkers(w, datasets, workers)
	if err != nil {
		return nil, err
	}
	return serve.Build(res, w.Registry, gamma.PolicyRegistry(w), meta)
}
