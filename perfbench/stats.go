package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// minBeyond is the number of samples a quoted percentile must have beyond
// it: with fewer, the tail it claims to describe is a handful of outliers.
const minBeyond = 10

// quotablePercentile is the highest whole percentile of n samples that has
// at least minBeyond samples beyond it (90 for n=100, 80 for n=50), or 0
// when n is too small to quote any tail.
func quotablePercentile(n int) int {
	if n < minBeyond {
		return 0
	}
	return int(math.Floor(100 * float64(n-minBeyond) / float64(n)))
}

// percentile returns the nearest-rank p-th percentile of the samples: the
// smallest sample with at least p% of the samples at or below it. It sorts
// a copy, so callers keep their order.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle of the samples (the mean of the two middle ones for
// an even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (a counter the workload never moved).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overhead compares traced operations with the untraced ones interleaved
// with them in the same run, per SQL statement: pairs differ in cost, and
// the statement count (identical traced or not) normalizes that away.
// Operations that ran no statement (path-cache hits) are left out.
type overhead struct {
	lat   [2]time.Duration
	stmts [2]int
}

func (o *overhead) add(traced bool, lat time.Duration, stmts int) {
	if stmts == 0 {
		return
	}
	k := 0
	if traced {
		k = 1
	}
	o.lat[k] += lat
	o.stmts[k] += stmts
}

// pct is the traced operations' extra time per statement, in percent.
func (o *overhead) pct() float64 {
	u := ratio(float64(o.lat[0]), float64(o.stmts[0]))
	t := ratio(float64(o.lat[1]), float64(o.stmts[1]))
	return ratio(100*(t-u), u)
}

// warnTail notes on standard error when a run's sample count does not
// support the p90 it reports (fewer than ten samples beyond it).
func warnTail(kind string, n int) {
	if q := quotablePercentile(n); q < 90 {
		fmt.Fprintf(os.Stderr, "perfbench: %d %s samples: p90 has fewer than %d beyond it (highest quotable: p%d)\n",
			n, kind, minBeyond, q)
	}
}
