package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/gamma-suite/gamma"
)

// digest is the SHA-256 of a Result's JSON encoding. Per-volunteer
// datasets differ in bytes between RunStudy and a hand-composed study
// (volunteer IDs, scheduler seeds), but the analyzed Result does not.
func digest(res *gamma.Result) ([32]byte, error) {
	if res == nil {
		return [32]byte{}, fmt.Errorf("nil result")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return [32]byte{}, fmt.Errorf("encode result: %w", err)
	}
	return sha256.Sum256(raw), nil
}

// composed is a study assembled from the public per-layer calls.
type composed struct {
	world     *gamma.World
	result    *gamma.Result
	allocsW   uint64  // allocations made by NewWorld
	slowestMs float64 // the slowest volunteer, which bounds the phase
}

// composeStudy runs NewWorld → SelectTargets → RunVolunteer for each
// source country over nproc goroutines → Analyze, recording a span
// around each call under op. It reproduces RunStudy's Result exactly,
// and is also the reference each study op is checked against. Its
// goroutines are the benchmark's own, not internal/sched's pool, so its
// volunteer phase is a span of the study, not of the sched layer.
func composeStudy(ctx context.Context, seed uint64, tr *tracer, op int) (*composed, error) {
	root := tr.begin(op, 0, "study")
	defer tr.end(root)
	out := &composed{}

	a0 := readRuntime().allocs
	sp := tr.begin(op, root, "worldgen.build")
	w, err := gamma.NewWorld(seed)
	tr.end(sp)
	out.allocsW = readRuntime().allocs - a0
	if err != nil {
		return nil, err
	}
	out.world = w

	sp = tr.begin(op, root, "targets.select")
	sels, err := gamma.SelectTargets(w)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	countries := w.SourceCountries()
	datasets := make([]*gamma.Dataset, len(countries))
	errs := make([]error, len(countries))
	busy := make([]time.Duration, len(countries))
	workers := runtime.GOMAXPROCS(0)
	next := make(chan int)
	var wg sync.WaitGroup
	phase := tr.begin(op, root, "study.volunteers")
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				cc := countries[j]
				vs := tr.begin(op, phase, "core.volunteer")
				v0 := time.Now()
				datasets[j], errs[j] = gamma.RunVolunteer(ctx, w, cc, sels[cc])
				busy[j] = time.Since(v0)
				tr.end(vs)
			}
		}()
	}
	for j := range countries {
		next <- j
	}
	close(next)
	wg.Wait()
	tr.end(phase)
	for j, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("volunteer %s: %w", countries[j], e)
		}
		out.slowestMs = max(out.slowestMs, float64(busy[j])/1e6)
	}

	sp = tr.begin(op, root, "pipeline.analyze")
	out.result, err = gamma.Analyze(w, datasets)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// studyOp is one study op exactly as cmd/gamma runs it.
func studyOp(ctx context.Context, seed uint64) (*gamma.Study, error) {
	return gamma.RunStudyWithOptions(ctx, seed, gamma.StudyOptions{Workers: 0})
}

// runStudy measures whole studies back to back, each from a fresh world
// and a settled heap, and checks each against the composed reference for
// its world.
func runStudy(cfg config) (report, error) {
	ctx := context.Background()
	refs := make([][32]byte, studyWorlds)
	var setup []float64
	for k := range refs {
		settle()
		t0 := time.Now()
		c, err := composeStudy(ctx, worldSeed(cfg.seed, k), nil, 0)
		if err != nil {
			return report{}, fmt.Errorf("reference study: %w", err)
		}
		if refs[k], err = digest(c.result); err != nil {
			return report{}, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	s := measureRounds(cfg.seconds, studyWorlds, func(k int) (func() error, error) {
		st, err := studyOp(ctx, worldSeed(cfg.seed, k))
		if err != nil {
			return nil, err
		}
		return func() error { return sameResult(st.Result, refs[k]) }, nil
	})
	return s.report(setup), nil
}

func sameResult(res *gamma.Result, want [32]byte) error {
	d, err := digest(res)
	if err != nil {
		return err
	}
	if d != want {
		return fmt.Errorf("result digest %x differs from the reference %x", d[:8], want[:8])
	}
	return nil
}
