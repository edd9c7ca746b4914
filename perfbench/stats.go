package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: a tail read from fewer samples is one unlucky step.
const minTail = 10

// tailLadder lists the tail percentiles the benchmark may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// beyond returns how many of n sorted samples lie strictly beyond the
// p-th percentile (nearest-rank: the first ceil(p/100·n) samples are at or
// below it). The epsilon keeps 99.9/100·10000 from rounding up past 9990.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100-1e-9))
}

// tailPercentile returns the highest percentile of tailLadder with at
// least minTail of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// samplesFor returns the smallest sample count for which p is reportable
// under the minTail rule.
func samplesFor(p float64) int {
	n := 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the middle value (mean of the two middle values for an
// even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (the default "exclusive" method),
// so the spreads printed here are the ones the acceptance rule computes.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	const n = 4
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// spread is the interquartile distance as a share of the median: the
// run-to-run steadiness figure each end-to-end bound is checked against.
func spread(xs []float64) (float64, error) {
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, fmt.Errorf("spread of values with median 0")
	}
	return (q3 - q1) / math.Abs(med), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal workload or metric name.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }
