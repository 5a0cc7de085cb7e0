package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by the nearest-rank rule on
// a sorted copy; 0 for an empty input.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of vs (mean of the two middle values for an
// even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midmean is the mean of the middle three values of vs (the median for
// fewer than five values): as deaf to a disturbed round as the median, but
// still an average of three rounds when the value drifts steadily over the
// run, where the median is always the same single round.
func midmean(vs []float64) float64 {
	if len(vs) < 5 {
		return median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-2] + s[m-1] + s[m] + s[m+1]) / 4
	}
	return (s[m-1] + s[m] + s[m+1]) / 3
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), because that is
// the spread the benchmark's acceptance rule is stated in.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a layer that did not run on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
