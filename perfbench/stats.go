package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it. A p90 over 120 cells has 12 beyond it; a p90 over 50 would
// have 5 and is refused rather than reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100):
// the smallest sample with at least p% of the samples at or below it. It
// refuses the percentile when fewer than minBeyond samples lie beyond that
// rank, since such a figure is set by a handful of outliers.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	// p*n/100 in that order keeps whole ranks exact (90*120/100 = 108);
	// the epsilon absorbs the rounding of fractional p.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// blockPercentile splits xs, in the order taken, into consecutive blocks
// of size n, takes the p-th percentile of each block under the same
// sample-count rule, and returns the median of those. A burst of host
// noise that lands in one block moves that block's figure, not the
// run's.
func blockPercentile(xs []float64, n int, p float64) (float64, error) {
	if len(xs) < n {
		return 0, fmt.Errorf("%d samples, want at least one block of %d", len(xs), n)
	}
	var per []float64
	for i := 0; i+n <= len(xs); i += n {
		v, err := percentile(xs[i:i+n], p)
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	return median(per), nil
}

// readPercentile is the percentile the read metrics use: blocks of
// readBlock reads.
func readPercentile(xs []float64, p float64) (float64, error) {
	return blockPercentile(xs, readBlock, p)
}

// median returns the middle sample of xs (the mean of the two middle ones
// for an even count). Unlike percentile it has no sample-count rule: it is
// used to summarise repeated set-up timings, not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// seconds reports d as float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
