package main

import "math/bits"

// latHist is the fixed-size latency histogram the timed window records into:
// log-linear buckets, 128 per power of two, so a reported percentile is
// within 1% of the sample it stands for (telemetry.Histogram's power-of-two
// buckets are a factor of two wide: too coarse to hold a regression bound
// against). Values are nanoseconds. Each
// writer goroutine owns one; they are merged after the window.
type latHist struct {
	buckets [histSize]uint64
	count   uint64
	sum     uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values below histSub get one bucket each; every octave above gets
	// histSub buckets.
	histSize = (64 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1)), e >= histSubBits
	return (e-histSubBits+1)<<histSubBits | int((v>>(uint(e)-histSubBits))&(histSub-1))
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i) + 1
	}
	e := uint(i>>histSubBits) + histSubBits - 1
	width := uint64(1) << (e - histSubBits)
	lo = uint64(1)<<e + uint64(i&(histSub-1))*width
	return lo, lo + width
}

func (h *latHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[histIndex(uint64(ns))]++
	h.count++
	h.sum += uint64(ns)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
}

// mean returns the mean recorded value, 0 when empty.
func (h *latHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// quantile returns the q-quantile, interpolated by rank inside its bucket so
// the value moves with the counts instead of snapping to a bucket edge.
func (h *latHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + (rank-cum)/float64(c)*float64(hi-lo)
		}
		cum += float64(c)
	}
	_, hi := histBounds(histSize - 1)
	return float64(hi)
}

// tailSupported reports whether n samples support the q-quantile: a
// percentile is reported only when at least ten samples lie beyond it.
func tailSupported(n uint64, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 1-0.9 is a hair under 0.1 in binary
}
