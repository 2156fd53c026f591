package main

import (
	"math"
	"sort"
)

// okMillis returns the latencies of the successful requests, sorted.
func okMillis(lat []int64) []float64 {
	out := make([]float64, 0, len(lat))
	for _, l := range lat {
		if l >= 0 {
			out = append(out, float64(l)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// spread is (max − min)/median.
func spread(v []float64) float64 {
	s := sorted(v)
	return (s[len(s)-1] - s[0]) / quantile(s, 0.5)
}

// iqr is the distance between the quartiles over the median, with the
// quartiles Python's statistics.quantiles(v, n=4) gives — the driver's
// measure of run-to-run spread.
func iqr(v []float64) float64 {
	s := sorted(v)
	at := func(p float64) float64 { // exclusive method: position p*(n+1), 1-based
		pos := p*float64(len(s)+1) - 1
		i := int(math.Floor(pos))
		if i < 0 {
			return s[0]
		}
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return (at(0.75) - at(0.25)) / quantile(s, 0.5)
}
