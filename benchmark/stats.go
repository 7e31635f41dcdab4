package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks (the "type 7" rule of R and numpy).
// xs need not be sorted; an empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
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

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// summary is the spread description printed beside every timing: sample
// count, extremes, quartiles and MAD.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	MAD    float64 `json:"mad"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{
		N:      len(xs),
		Min:    percentile(xs, 0),
		Q1:     percentile(xs, 25),
		Median: median(xs),
		Q3:     percentile(xs, 75),
		Max:    percentile(xs, 100),
		MAD:    mad(xs),
	}
}

// relIQR is the interquartile range as a share of the median — the spread
// figure the bounds in BENCHMARK.json are set against. It uses the
// exclusive-quantile rule of Python's statistics.quantiles(xs, n=4), the
// rule the acceptance check applies, so -compare reads the same number.
func relIQR(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j) // after clamping: small samples extrapolate, as Python does
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(m)
}
