package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit, as printed in a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the middle two for an even count);
// 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank method.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailQuantile is the highest quantile with at least ten samples beyond it,
// but never below the p90: under 100 samples the p90 has fewer than ten
// beyond it, which beats reporting something close to the median.
func tailQuantile(n int) float64 {
	return max(0.9, 1-10/float64(n))
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so spreads here match spreads computed there.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
