package main

import (
	"fmt"
	"math"
	"sort"
)

// Samples is a set of raw observations. Quantiles are exact: they come
// from the sorted samples, never from histogram bucket bounds, so a
// reported p99 can never exceed the observed maximum.
type Samples struct {
	v      []float64
	sorted bool
}

// Add records one observation.
func (s *Samples) Add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// Len is the number of observations.
func (s *Samples) Len() int { return len(s.v) }

func (s *Samples) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the closest ranks, the same definition as numpy's default and
// Python's statistics.quantiles(method="inclusive"). It returns NaN for
// an empty set.
func (s *Samples) Quantile(q float64) float64 {
	return quantileSorted(s.sortedValues(), q)
}

// Max returns the largest observation (NaN for an empty set).
func (s *Samples) Max() float64 {
	v := s.sortedValues()
	if len(v) == 0 {
		return math.NaN()
	}
	return v[len(v)-1]
}

// Sum returns the sum of the observations.
func (s *Samples) Sum() float64 {
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t
}

func (s *Samples) sortedValues() []float64 {
	s.sort()
	return s.v
}

func quantileSorted(v []float64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return v[n-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

// checkQuantiles verifies the invariants every reported percentile must
// hold: each within [min, max] and non-decreasing in q.
func checkQuantiles(name string, s *Samples, qs ...float64) error {
	v := s.sortedValues()
	if len(v) == 0 {
		return fmt.Errorf("%s: no samples", name)
	}
	prev := math.Inf(-1)
	for _, q := range qs {
		x := quantileSorted(v, q)
		if x < v[0] || x > v[len(v)-1] || x < prev {
			return fmt.Errorf("%s: p%g = %g outside [%g, %g] or below a lower quantile", name, q*100, x, v[0], v[len(v)-1])
		}
		prev = x
	}
	return nil
}
