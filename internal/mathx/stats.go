package mathx

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	// sorted[lo] + frac*(hi-lo) rather than a two-sided weighted sum:
	// (1-frac)+frac can differ from 1 by an ulp, which pushes the result
	// outside [sorted[lo], sorted[hi]] when the two order statistics are
	// equal (e.g. a series of identical subnormals).
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Min returns the smallest value in xs (0 for empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs (0 for empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CoefficientOfVariation returns StdDev/Mean (0 if the mean is 0).
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Chi2Threshold95 returns the 95 % quantile of the chi-squared distribution
// with dof degrees of freedom, via the Wilson–Hilferty approximation. The
// MSCKF update uses it as the Mahalanobis gating threshold.
func Chi2Threshold95(dof int) float64 {
	if dof <= 0 {
		return 0
	}
	// exact small-dof values for accuracy where gating is most sensitive
	table := []float64{3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067,
		15.507, 16.919, 18.307, 19.675, 21.026, 22.362, 23.685, 24.996,
		26.296, 27.587, 28.869, 30.144, 31.410}
	if dof <= len(table) {
		return table[dof-1]
	}
	k := float64(dof)
	z := 1.6449 // 95 % normal quantile
	h := 1 - 2.0/(9*k)
	x := h + z*math.Sqrt(2.0/(9*k))
	return k * x * x * x
}
