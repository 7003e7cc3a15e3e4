package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

// TestPercentileNearestRank pins the nearest-rank definition: p90 of
// 1..120 is the 108th value, with 12 samples beyond it.
func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{120, 90, 108},
		{120, 50, 60},
		{1000, 99, 990},
		{20, 50, 10},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Fatalf("p%g of %d: %v", c.p, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.p, c.n, got, c.want)
		}
	}
}

// TestPercentileRefusesThinTail checks the sample-count rule: a percentile
// with fewer than 10 samples beyond it is refused, one with exactly 10 is
// reported.
func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 90, true},  // rank 90, 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{19, 50, false},  // rank 10, 9 beyond
		{120, 99, false}, // rank 119, 1 beyond
		{0, 50, false},   // no samples
		{20, 50, true},   // rank 10, 10 beyond
		{2000, 99.9, false},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%t", c.p, c.n, err, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
}

// TestBlockPercentile checks that a burst confined to one block leaves the
// median over blocks alone, and that the per-block rule still applies.
func TestBlockPercentile(t *testing.T) {
	xs := make([]float64, 0, 5000)
	for b := 0; b < 5; b++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if b == 2 {
				v *= 10 // a noisy block
			}
			xs = append(xs, v)
		}
	}
	got, err := blockPercentile(xs, 1000, 99)
	if err != nil || got != 990 {
		t.Errorf("block p99 = %g, %v; want 990", got, err)
	}
	if _, err := blockPercentile(xs, 500, 99); err == nil {
		t.Error("p99 of 500-sample blocks (5 beyond) was not refused")
	}
	if _, err := blockPercentile(xs[:999], 1000, 50); err == nil {
		t.Error("fewer samples than one block was not refused")
	}
}
