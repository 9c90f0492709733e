package main

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds. Values below 256
// are exact; above, each power of two splits into 128 linear buckets, so a
// bucket's width is at most 1/128 (0.78%) of its lower edge. Buckets cover
// the whole uint64 range, so no sample is ever clamped, and memory is a
// fixed 58 KiB however many samples arrive. Add is lock-free, so open-loop
// completion goroutines record into one shared histogram.
type hist struct {
	n, sum, max atomic.Uint64
	b           [histBuckets]atomic.Uint64
}

const (
	histExact   = 256
	histSub     = 128
	histBuckets = histExact + 56*histSub
)

func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	s := bits.Len64(v) - 8 // v>>s lies in [128, 256)
	return histExact + (s-1)*histSub + int(v>>s) - histSub
}

// histUpper is the largest value bucket i holds.
func histUpper(i int) uint64 {
	if i < histExact {
		return uint64(i)
	}
	s := (i-histExact)/histSub + 1
	m := uint64((i-histExact)%histSub + histSub)
	return (m+1)<<s - 1
}

func (h *hist) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.n.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.b[histIndex(v)].Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// meanUs is the exact mean in microseconds (0 with no samples).
func (h *hist) meanUs() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n) / 1e3
}

// sumUs is the exact total in microseconds.
func (h *hist) sumUs() float64 { return float64(h.sum.Load()) / 1e3 }

// quantileUs returns the q-quantile in microseconds: the upper edge of the
// bucket holding the ceil(q·n)-th smallest sample, capped at the largest
// sample seen, so it never under-reports and over-reports by <0.8%.
func (h *hist) quantileUs(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return float64(min(histUpper(i), h.max.Load())) / 1e3
		}
	}
	return float64(h.max.Load()) / 1e3
}

// tailPercentile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it (0 when even p50 has fewer).
func (h *hist) tailPercentile() float64 {
	n := float64(h.n.Load())
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9, 99.99, 99.999} {
		if n*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// maxUs is the largest sample in microseconds.
func (h *hist) maxUs() float64 { return float64(h.max.Load()) / 1e3 }
