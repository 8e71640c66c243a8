package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// oracleQuantile is the textbook definition the benchmark's quantiles
// must match: sort, then interpolate linearly between the two closest
// ranks h = q·(n−1).
func oracleQuantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := math.Floor(h)
	hi := math.Ceil(h)
	return s[int(lo)] + (h-lo)*(s[int(hi)]-s[int(lo)])
}

func TestQuantileMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4097} {
		var s Samples
		var raw []float64
		for i := 0; i < n; i++ {
			x := rng.ExpFloat64() * 10 // skewed, like latencies
			s.Add(x)
			raw = append(raw, x)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got, want := s.Quantile(q), oracleQuantile(raw, q)
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("n=%d q=%g: got %g, oracle %g", n, q, got, want)
			}
		}
		if p99, mx := s.Quantile(0.99), s.Max(); p99 > mx {
			t.Fatalf("n=%d: p99 %g exceeds max %g", n, p99, mx)
		}
		if err := checkQuantiles("x", &s, 0.5, 0.9, 0.99); err != nil {
			t.Fatal(err)
		}
	}
	var empty Samples
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty set must have no quantile")
	}
	if checkQuantiles("empty", &empty, 0.5) == nil {
		t.Fatal("an empty set must fail the quantile check")
	}
}

func TestQuantileMatchesPythonInclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 10], n=4, method="inclusive")
	// gives [2.0, 3.0, 4.0].
	var s Samples
	for _, x := range []float64{10, 3, 1, 4, 2} {
		s.Add(x)
	}
	for q, want := range map[float64]float64{0.25: 2, 0.5: 3, 0.75: 4} {
		if got := s.Quantile(q); got != want {
			t.Errorf("q=%g: got %g, want %g", q, got, want)
		}
	}
}
