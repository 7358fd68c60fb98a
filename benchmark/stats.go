package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between closest ranks; vs need not be sorted. An empty
// input yields NaN so a missing sample set can never read as a fast one.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the acceptance check measures run-to-run spread.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return math.Abs((q3 - q1) / m)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// cv is the coefficient of variation (population standard deviation over
// the mean).
func cv(vs []float64) float64 {
	m := mean(vs)
	if len(vs) == 0 || m == 0 {
		return math.NaN()
	}
	var ss float64
	for _, v := range vs {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss/float64(len(vs))) / m
}

func nsToUs(vs []int64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v) / 1e3
	}
	return out
}
