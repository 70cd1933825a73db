package main

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// A tail is reported only when at least ten samples lie beyond it.
func TestHistTailSupport(t *testing.T) {
	for _, c := range []struct {
		n         int
		q         float64
		supported bool
	}{
		{30, 0.99, false},  // p99 of 30 samples is the slowest one
		{999, 0.99, false}, // 9.99 beyond
		{1000, 0.99, true}, // 10 beyond
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		var h hist
		for i := 1; i <= c.n; i++ {
			h.record(time.Duration(i))
		}
		if got := h.supported(c.q); got != c.supported {
			t.Errorf("n=%d: p%v supported = %v, want %v", c.n, c.q*100, got, c.supported)
		}
	}
}

func TestFailShare(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int
		want              float64
	}{
		{10, 0, 0},
		{10, 1, 0.1},
		{4, 4, 1},
		{0, 0, 1}, // nothing attempted is nothing achieved
	} {
		if got := failShare(c.attempted, c.failed); got != c.want {
			t.Errorf("failShare(%d, %d) = %v, want %v", c.attempted, c.failed, got, c.want)
		}
	}
}

// A zero-allocation path reads exactly 0, not a ratio against a zero
// baseline.
func TestPerOpZeroBaseline(t *testing.T) {
	if got := perOp(0, 1_000_000); got != 0 {
		t.Errorf("perOp(0, n) = %v, want 0", got)
	}
	if got := perOp(5, 0); got != 0 {
		t.Errorf("perOp(5, 0) = %v, want 0", got)
	}
	if got := perOp(3, 30); got != 0.1 {
		t.Errorf("perOp(3, 30) = %v, want 0.1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "study", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "worldgen.build", Start: 0, End: 20},
		{ID: 3, Parent: 1, Name: "study.volunteers", Start: 30, End: 80},
		// Parallel volunteers overlap: their union is [30,50) + [55,80).
		{ID: 4, Parent: 3, Name: "core.volunteer", Start: 30, End: 45},
		{ID: 5, Parent: 3, Name: "core.volunteer", Start: 35, End: 50},
		{ID: 6, Parent: 3, Name: "core.volunteer", Start: 55, End: 80},
		// A child that outlives its parent counts only inside it.
		{ID: 7, Parent: 1, Name: "pipeline.analyze", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 20 - 50 - 10,
		2: 20,
		3: 50 - 20 - 25,
		4: 15, 5: 15, 6: 25,
		7: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	ls := collectLayers(spans)
	if got := ls.self["study.volunteers"]; len(got) != 1 || got[0] != 5e-6 {
		t.Errorf("study.volunteers self = %v ms, want [5e-06]", got)
	}
	if got := len(ls.dur["core.volunteer"]); got != 3 {
		t.Errorf("%d core.volunteer durations, want 3", got)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 10}}, 0, 10, 10},
		{[][2]int64{{5, 8}, {0, 3}}, 0, 10, 6},           // unsorted, disjoint
		{[][2]int64{{0, 6}, {4, 10}}, 0, 10, 10},         // overlapping
		{[][2]int64{{0, 4}, {4, 6}}, 0, 10, 6},           // touching
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},         // clipped to the parent
		{[][2]int64{{12, 15}}, 0, 10, 0},                 // outside the parent
		{[][2]int64{{0, 10}, {2, 3}, {4, 5}}, 0, 10, 10}, // nested
	} {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 0; i < 100; i++ {
		h.record(300 * time.Nanosecond)
	}
	// One hundred samples in the single 300ns bucket: the median sits
	// halfway through it.
	if got := h.quantile(0.5); got != 300.5 {
		t.Errorf("median of identical samples = %v, want 300.5", got)
	}
	var wide hist
	for _, d := range []time.Duration{100, 200, 1 << 20, 1 << 21} {
		wide.record(d)
	}
	if got := wide.quantile(0.25); got != 101 {
		t.Errorf("p25 = %v, want 101", got)
	}
	// The upper half lies in log buckets; they bound it within 1/16.
	if got := wide.quantile(1); math.Abs(got-(1<<21))/(1<<21) > 1.0/16 {
		t.Errorf("max = %v, want within 1/16 of %d", got, 1<<21)
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&wide)
	if merged.n != 104 {
		t.Errorf("merged count = %d, want 104", merged.n)
	}
}

func TestLogBucketBounds(t *testing.T) {
	for _, ns := range []uint64{exactNs, exactNs + 1, 1 << 20, 3<<20 + 12345, 1 << 40} {
		lo, hi := logBounds(logBucket(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns falls outside its bucket [%v, %v)", ns, lo, hi)
		}
	}
}

// Every class gets the same share of a sequence, within one request.
func TestClassSequenceShares(t *testing.T) {
	counts := make([]int, nClasses)
	for _, c := range classSequence(newTestRand()) {
		counts[c]++
	}
	for c, n := range counts {
		if n < seqLen/nClasses || n > seqLen/nClasses+1 {
			t.Errorf("%s: %d requests, want %d or %d", classNames[c], n, seqLen/nClasses, seqLen/nClasses+1)
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
