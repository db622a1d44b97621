package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		s    sample
		q    float64
		want float64
	}{
		{sample{3, 1, 2}, 0.5, 2},
		{sample{4, 1, 3, 2}, 0.5, 2.5},
		{sample{1, 2, 3, 4, 5}, 0.25, 2},
		{sample{1, 2, 3, 4, 5}, 0.9, 4.6},
		{sample{7}, 0.99, 7},
		{sample{10, 0}, 0, 0},
		{sample{10, 0}, 1, 10},
	} {
		if got := c.s.quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.quantile(%g) = %g, want %g", c.s, c.q, got, c.want)
		}
	}
	if !math.IsNaN(sample{}.quantile(0.5)) {
		t.Error("empty sample quantile is not NaN")
	}
	s := sample{5, 1, 3}
	s.median()
	if s[0] != 5 || s[1] != 1 {
		t.Error("quantile reordered its sample")
	}
}

// TestTailPercentile pins the reporting rule: the highest percentile
// with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{39, 0, false},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond", c.n, p)
		}
	}
}
