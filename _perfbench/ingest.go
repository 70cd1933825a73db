package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/serve"
)

// ingestWorld is what gammad -data finds on disk for one world: its
// seed, the volunteer dataset files, and the SHA-256 of every endpoint
// body a correct reload must reproduce (serve.Build of the study's own
// Result). Digests rather than bodies keep the benchmark's own share of
// the heap small next to the reload it measures.
type ingestWorld struct {
	seed     uint64
	dir      string
	bytes    int64
	expected map[string][32]byte
}

// writeIngestWorld saves a study's datasets under dir and builds the
// snapshot of its Result, returning both.
func writeIngestWorld(st *gamma.Study, seed uint64, dir string) (*ingestWorld, *serve.Snapshot, error) {
	snap, err := expectedSnapshot(st)
	if err != nil {
		return nil, nil, err
	}
	iw, err := writeDatasets(st, seed, dir)
	if err != nil {
		return nil, nil, err
	}
	iw.expected = bodyDigests(snap)
	return iw, snap, nil
}

// bodyDigests returns the SHA-256 of every endpoint body of snap.
func bodyDigests(snap *serve.Snapshot) map[string][32]byte {
	out := make(map[string][32]byte)
	for _, ep := range snap.Endpoints() {
		b, _ := snap.Body(ep)
		out[ep] = sha256.Sum256(b)
	}
	return out
}

// expectedSnapshot builds the serving snapshot of a study's own Result.
func expectedSnapshot(st *gamma.Study) (*serve.Snapshot, error) {
	return serve.Build(st.Result, st.World.Registry, gamma.PolicyRegistry(st.World), serve.Meta{ID: "study"})
}

// writeDatasets saves a study's volunteer datasets under dir, one file
// per country, as gammad -data expects them.
func writeDatasets(st *gamma.Study, seed uint64, dir string) (*ingestWorld, error) {
	iw := &ingestWorld{seed: seed, dir: dir}
	codes := make([]string, 0, len(st.Datasets))
	for cc := range st.Datasets {
		codes = append(codes, cc)
	}
	sort.Strings(codes)
	for _, cc := range codes {
		path := filepath.Join(dir, cc+".json")
		if err := core.SaveDataset(path, st.Datasets[cc]); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		iw.bytes += fi.Size()
	}
	return iw, nil
}

type reloadCost struct {
	load                    time.Duration
	loadAllocs, worldAllocs uint64
}

// reload is one gammad -data reload into store: load every dataset file
// in sorted order, build the world, analyze, build the snapshot and
// install it.
func reload(iw *ingestWorld, store *serve.Store, tr *tracer, op int) (*serve.Snapshot, reloadCost, error) {
	var cost reloadCost
	root := tr.begin(op, 0, "ingest")
	defer tr.end(root)

	files, err := filepath.Glob(filepath.Join(iw.dir, "*.json"))
	if err != nil || len(files) == 0 {
		return nil, cost, fmt.Errorf("no datasets in %s (%v)", iw.dir, err)
	}
	sort.Strings(files)
	a0 := readRuntime().allocs
	t0 := time.Now()
	sp := tr.begin(op, root, "core.load")
	datasets := make([]*core.Dataset, 0, len(files))
	for _, f := range files {
		ds, err := core.LoadDataset(f)
		if err != nil {
			tr.end(sp)
			return nil, cost, err
		}
		datasets = append(datasets, ds)
	}
	tr.end(sp)
	cost.load = time.Since(t0)
	a1 := readRuntime().allocs
	cost.loadAllocs = a1 - a0

	sp = tr.begin(op, root, "worldgen.build")
	w, err := gamma.NewWorld(iw.seed)
	tr.end(sp)
	cost.worldAllocs = readRuntime().allocs - a1
	if err != nil {
		return nil, cost, err
	}
	sp = tr.begin(op, root, "pipeline.analyze")
	res, err := gamma.AnalyzeWithWorkers(w, datasets, 0)
	tr.end(sp)
	if err != nil {
		return nil, cost, err
	}
	sp = tr.begin(op, root, "serve.build")
	snap, err := serve.Build(res, w.Registry, gamma.PolicyRegistry(w), serve.Meta{ID: "data@reload", BuiltAt: time.Now()})
	tr.end(sp)
	if err != nil {
		return nil, cost, err
	}
	sp = tr.begin(op, root, "serve.install")
	err = store.Install(snap)
	tr.end(sp)
	return snap, cost, err
}

// checkReload compares every endpoint body of a reloaded snapshot with
// the one built straight from the study's Result, as gammad's selfcheck
// does, and checks that the reload is the live snapshot.
func checkReload(snap *serve.Snapshot, iw *ingestWorld, store *serve.Store) error {
	eps := snap.Endpoints()
	if len(eps) != len(iw.expected) {
		return fmt.Errorf("reload serves %d endpoints, want %d", len(eps), len(iw.expected))
	}
	for _, ep := range eps {
		got, _ := snap.Body(ep)
		want, ok := iw.expected[ep]
		if !ok || sha256.Sum256(got) != want {
			return fmt.Errorf("reload body for %s differs from the study's", ep)
		}
	}
	if store.Load() != snap {
		return fmt.Errorf("reloaded snapshot is not the live one")
	}
	return nil
}

// runIngest measures reloads back to back, each from a settled heap,
// into one live store that starts on world 0's snapshot. A world's
// set-up time is its study and snapshot build; writing its dataset
// files is disk work of the benchmark's own and stays out of setup_s.
func runIngest(cfg config) (report, error) {
	worlds := make([]*ingestWorld, ingestWorlds)
	var store *serve.Store
	var setup []float64
	for k := range worlds {
		seed := worldSeed(cfg.seed, k)
		settle()
		t0 := time.Now()
		st, err := studyOp(context.Background(), seed)
		var snap *serve.Snapshot
		if err == nil {
			snap, err = expectedSnapshot(st)
		}
		if err == nil && store == nil {
			store, err = serve.NewStore(snap)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err == nil {
			worlds[k], err = writeDatasets(st, seed, filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", k)))
		}
		if err != nil {
			return report{}, fmt.Errorf("ingest set-up: %w", err)
		}
		worlds[k].expected = bodyDigests(snap)
	}
	s := measureRounds(cfg.seconds, ingestWorlds, func(k int) (func() error, error) {
		snap, _, err := reload(worlds[k], store, nil, 0)
		if err != nil {
			return nil, err
		}
		return func() error { return checkReload(snap, worlds[k], store) }, nil
	})
	return s.report(setup), nil
}
