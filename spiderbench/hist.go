package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histSubBits sets the log-bucket resolution: every power of two is
// split into 2^histSubBits linear sub-buckets, so a recorded value is
// known to within 1/512 (0.2%) of itself. Percentiles interpolate
// linearly inside the bucket the rank falls in.
const histSubBits = 9

const (
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// hist is a bounded log-bucketed latency histogram in nanoseconds. Its
// size is fixed (about 230 KiB) whatever the sample count, and
// recording is one atomic add, so client goroutines share one
// instance without a lock.
type hist struct {
	counts [histBuckets]atomic.Uint64
	total  atomic.Uint64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return (shift+1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i) + 1
	}
	shift := uint(i/histSub - 1)
	lo = uint64(i%histSub+histSub) << shift
	return lo, lo + 1<<shift
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))].Add(1)
	h.total.Add(1)
}

func (h *hist) count() uint64 { return h.total.Load() }

// merge adds src's counts into h.
func (h *hist) merge(src *hist) {
	for i := range src.counts {
		if n := src.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.total.Add(src.total.Load())
}

// quantile returns the q-quantile (0 < q <= 1) in milliseconds, or 0
// for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := histBounds(i)
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			ns := float64(lo) + frac*float64(hi-lo)
			return ns / 1e6
		}
		cum += c
	}
	lo, _ := histBounds(histBuckets - 1)
	return float64(lo) / 1e6
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it, so a tail figure is never read off a handful of
// observations.
func tailOK(n uint64, q float64) bool {
	return float64(n)*(1-q) >= 10
}
