// Package harness holds the measurement tools the benchmark is built
// from: order statistics, an in-memory span recorder with self-time
// attribution, a seeded guest-page generator, process CPU accounting
// and an allocation-free HTTP response sink. Nothing here knows about
// HERE; the benchmark proper (package main, one directory up) wires
// these around calls into the program.
package harness

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. It returns NaN for an empty slice. The input
// is not modified.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median returns the middle sample, averaging the two middle samples
// of an even-sized set (the convention Python's statistics.median and
// the acceptance driver use). NaN for an empty slice.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile by the "exclusive"
// method of Python's statistics.quantiles(values, n=4) — the rule the
// acceptance driver applies to a set of runs — so a spread computed
// here matches the one the driver computes. It needs two samples.
func Quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based, fractional
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against. A single run
// has none to show, so fewer than two samples give 0.
func Spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	q1, q3 := Quartiles(samples)
	return (q3 - q1) / math.Abs(Median(samples))
}

// Samples collects durations of one timed operation.
type Samples struct {
	d []time.Duration
}

// NewSamples preallocates room for n samples so that recording inside a
// timed loop never grows the slice.
func NewSamples(n int) *Samples { return &Samples{d: make([]time.Duration, 0, n)} }

// Add records one duration.
func (s *Samples) Add(d time.Duration) { s.d = append(s.d, d) }

// Len reports the number of samples.
func (s *Samples) Len() int { return len(s.d) }

// Sum reports the total of all samples.
func (s *Samples) Sum() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// In returns the samples as floats in the given unit (time.Millisecond
// for ms, time.Microsecond for µs, ...).
func (s *Samples) In(unit time.Duration) []float64 {
	out := make([]float64, len(s.d))
	for i, d := range s.d {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// P returns the p-th percentile in the given unit.
func (s *Samples) P(p float64, unit time.Duration) float64 {
	return Percentile(s.In(unit), p)
}

// Mean returns the arithmetic mean in the given unit (NaN when empty).
func (s *Samples) Mean(unit time.Duration) float64 {
	if len(s.d) == 0 {
		return math.NaN()
	}
	return float64(s.Sum()) / float64(len(s.d)) / float64(unit)
}
