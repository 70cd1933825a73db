package main

import (
	"math"
	"math/bits"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 from 30 samples is just the slowest one,
// so the study and ingest workloads, with tens of ops per run, report
// only their median.
const minTail = 10

// failShare is failed over attempted. A run that attempted nothing has
// no successes to show, so it reads as fully failed.
func failShare(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// perOp divides a counter delta by an operation count. A zero delta is
// exactly zero, so a zero-allocation path reads 0, never a rounding
// artefact, and a later reading of any allocation is a visible change.
func perOp(delta uint64, ops int) float64 {
	if delta == 0 || ops <= 0 {
		return 0
	}
	return float64(delta) / float64(ops)
}

// ratio is num/den, or 0 when den is 0 (a cache that was never probed).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist is a latency histogram for sub-microsecond requests: one bucket
// per nanosecond below exactNs, sixteen log-spaced buckets per power of
// two above. The exact range, about 4 µs, holds nearly every ServeHTTP
// request, and keeps a histogram at 20 KB, small next to the store whose
// heap the serve workload measures. Recording never allocates, so it can
// sit inside a timed request loop.
type hist struct {
	exact [exactNs]uint32
	log   [64 * logSub]uint32
	n     uint64
}

const (
	exactNs = 1 << 12
	logSub  = 16
)

func (h *hist) record(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.n++
	if ns < exactNs {
		h.exact[ns]++
		return
	}
	h.log[logBucket(ns)]++
}

// logBucket maps ns >= exactNs to its log-spaced bucket.
func logBucket(ns uint64) int {
	e := bits.Len64(ns) - 1               // ns in [2^e, 2^(e+1))
	sub := (ns >> (e - 4)) & (logSub - 1) // next four bits below the top one
	return e*logSub + int(sub)
}

// logBounds returns the [lo, hi) nanosecond range of a log bucket.
func logBounds(b int) (float64, float64) {
	e, sub := b/logSub, b%logSub
	width := math.Ldexp(1, e-4)
	lo := math.Ldexp(1, e) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) merge(o *hist) {
	for i, c := range o.exact {
		h.exact[i] += c
	}
	for i, c := range o.log {
		h.log[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it, so that tightly clustered latencies
// still read as a continuous value rather than a bucket edge.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	for ns, c := range h.exact {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			return float64(ns) + (target-cum)/float64(c)
		}
		cum += float64(c)
	}
	for b, c := range h.log {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := logBounds(b)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := logBounds(len(h.log) - 1)
	return lo
}

// supported reports whether at least minTail samples lie beyond the
// q-quantile.
func (h *hist) supported(q float64) bool {
	return float64(h.n)*(1-q) >= minTail
}
