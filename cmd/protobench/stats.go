package main

import (
	"math"
	"slices"
	"time"
)

// samples holds latencies in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Microsecond)) }

// quantiles returns the requested quantiles (0..1) of s, linearly
// interpolated between closest ranks; 0 for an empty sample.
func (s samples) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(s) == 0 {
		return out
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	for i, q := range qs {
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(sorted)-1)
		out[i] = sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
	}
	return out
}

// median of plain values (setup times).
func median(v []float64) float64 { return samples(v).quantiles(0.5)[0] }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
