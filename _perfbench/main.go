// Command perfbench is the repository's benchmark. It drives the gamma
// module from outside, through the same public calls cmd/gamma and
// cmd/gammad make, and times them:
//
//	bash _perfbench/run.sh --workload study|ingest|serve --seed N --seconds S --trace 0|1
//
// run.sh builds this package from the checkout's sources and runs it from
// the checkout's root. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 a separate traced
// run records a span around every call into a layer and reports per-layer
// numbers, writing the spans to .bench_build/perfbench/spans-*.json.
//
// Workloads (each checks every output it produces; a failed check is a
// failed op, never a dropped one):
//
//   - study: one whole 23-country study per op, from a fresh world, as
//     each cmd/gamma run does. Exercises the measurement plane and Box 2;
//     bypasses dataset decoding and serving.
//   - ingest: gammad's -data reload per op: decode the 23 datasets,
//     build the world, analyze, build and install the serving snapshot.
//     Bypasses the measurement plane.
//   - serve: a seeded, skewed read mix through Server.ServeHTTP from
//     nproc closed-loop callers. Bypasses every layer but serve.
//
// The directory name starts with an underscore so that the go tool's
// ./... patterns and the repository's source walker (gammavet) skip it:
// it is a module of its own that imports gamma through a replace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"github.com/gamma-suite/gamma/internal/stats"
)

// How many seeded worlds one study or ingest run cycles through. Worlds
// differ in size (allocations, work) by up to a tenth from seed to seed,
// so a run over one world would measure its seed as much as the code;
// the mean over n worlds cuts that spread by about sqrt(n). Each world is
// set up once, and setup_s is the median over them, so n set-ups also
// steady setup_s.
const (
	studyWorlds  = 8
	ingestWorlds = 8
)

// worldSeed is the k-th world of a run's seed. World 0 is the seed
// itself, so a traced run of seed 42 measures the study of seed 42.
func worldSeed(seed uint64, k int) uint64 { return seed + uint64(k)<<32 }

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workDir  string // scratch files for this run, removed at exit
	spanFile string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and the output checks they failed.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "study, ingest or serve")
	flag.Uint64Var(&cfg.seed, "seed", 42, "seed every input is derived from")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	base := filepath.Join(".bench_build", "perfbench")
	cfg.workDir = filepath.Join(base, fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid()))
	cfg.spanFile = filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))

	rep, err := run(cfg)
	if rerr := os.RemoveAll(cfg.workDir); err == nil && rerr != nil {
		err = fmt.Errorf("remove work dir: %w", rerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(rep)
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

var workloads = map[string]func(config) (report, error){
	"study":  runStudy,
	"ingest": runIngest,
	"serve":  runServe,
}

func run(cfg config) (report, error) {
	measure, ok := workloads[cfg.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (want study, ingest or serve)", cfg.workload)
	}
	if cfg.trace {
		return runTraced(cfg)
	}
	return measure(cfg)
}

// endToEnd assembles the end-to-end metrics every workload reports.
func endToEnd(setup []float64, p50us, opsPerS, allocsPerOp, heapPeakBytes float64) map[string]metric {
	return map[string]metric{
		"setup_s":        {stats.Quantile(setup, 0.5), "s"},
		"latency_p50_us": {p50us, "us"},
		"ops_per_s":      {opsPerS, "1/s"},
		"allocs_per_op":  {allocsPerOp, "count"},
		"heap_peak_mb":   {heapPeakBytes / (1 << 20), "MB"},
	}
}

// opStats is what measureRounds observed.
type opStats struct {
	t      tally
	lat    []float64 // per op, microseconds
	peaks  []float64 // per-op heap peak, bytes
	allocs uint64
	busy   time.Duration
}

// measureRounds runs rounds of one op per world, so that every world
// weighs the same, for as many whole rounds as fit in seconds judging by
// the last one, and at least one. Each op starts from a settled heap;
// timed runs the op and returns the check of its output, which runs after
// the clock has stopped.
func measureRounds(seconds time.Duration, worlds int, timed func(world int) (check func() error, err error)) opStats {
	var s opStats
	heap := startHeapSampler()
	defer heap.finish()
	start := time.Now()
	for round := time.Duration(0); round == 0 || time.Since(start)+round <= seconds; {
		r0 := time.Now()
		for k := 0; k < worlds; k++ {
			settle()
			heap.take()
			a0 := readRuntime().allocs
			t0 := time.Now()
			check, err := timed(k)
			dt := time.Since(t0)
			s.allocs += readRuntime().allocs - a0
			s.peaks = append(s.peaks, heap.take())
			s.busy += dt
			s.lat = append(s.lat, float64(dt.Nanoseconds())/1e3)
			if err == nil {
				err = check()
			}
			s.t.add(err)
		}
		round = time.Since(r0)
	}
	return s
}

// report summarises the ops: latency is their median, throughput ops
// over busy time, and the heap peak the mean of per-op peaks, so that
// where one op's collections happened to fall does not set it.
func (s opStats) report(setup []float64) report {
	n := len(s.lat)
	return finish(s.t, endToEnd(setup, stats.Quantile(s.lat, 0.5), float64(n)/s.busy.Seconds(), perOp(s.allocs, n), stats.Mean(s.peaks)))
}

func finish(t tally, m map[string]metric) report {
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed (share %.4f); first: %v\n",
			t.failed, t.attempted, failShare(t.attempted, t.failed), t.firstErr)
	}
	return report{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

func printTable(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %16.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

// settle collects garbage outside any timed window, so each op starts
// from a settled heap as a fresh process would.
func settle() { runtime.GC() }

// rtCounters reads the runtime counters the benchmark reports.
type rtCounters struct {
	allocs      uint64
	gcCPU, used float64 // CPU seconds in GC; CPU seconds not idle
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		used:   s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// heapSampler records the peak of heap object bytes (live plus not yet
// swept) while it runs, polling runtime/metrics from one goroutine.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// liveHeap returns the bytes of heap objects now. Right after settle
// every unreachable object has been swept, so it is the live heap.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in bytes since the previous take and starts a
// new one.
func (h *heapSampler) take() float64 { return float64(h.peak.Swap(0)) }

// finish stops the sampler and waits for it to exit.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}
