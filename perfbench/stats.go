package main

import (
	"fmt"
	"sort"
)

// median returns the middle of xs, averaging the two middle values of an
// even-length sample (the convention Python's statistics.median uses).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the 1-based nearest rank of percentile p in a sample of n.
func rankOf(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (1 <= p <= 100).
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// tailPercentile is the highest whole percentile of an n-sample whose
// nearest rank leaves at least minBeyond samples above it; 0 when even p1
// does not. A 93-day study gives p89 at minBeyond = 10.
func tailPercentile(n, minBeyond int) int {
	for p := 99; p >= 1; p-- {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// checkTail fails when percentile p of an n-sample has fewer than
// minBeyond samples above it, so a reported tail is never a guess.
func checkTail(name string, p, n, minBeyond int) error {
	if n-rankOf(p, n) < minBeyond {
		return fmt.Errorf("%s: p%d of %d samples leaves %d beyond it, want >= %d", name, p, n, n-rankOf(p, n), minBeyond)
	}
	return nil
}

// validName reports whether s is a legal metric or workload name: 1 to 64
// characters from [A-Za-z0-9_.-], starting with a letter or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// ratio divides, returning 0 for an empty base instead of NaN: a layer
// that did no work on a workload reports 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
