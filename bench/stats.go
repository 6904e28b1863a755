package main

import (
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile (0..1) of xs by nearest rank; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// medianOf reduces the per-repetition values of each metric to their median,
// which is what a run reports: one slow repetition on a shared machine moves
// a mean but not a median.
func medianOf(reps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(reps) == 0 {
		return out
	}
	for name := range reps[0] {
		xs := make([]float64, 0, len(reps))
		for _, r := range reps {
			xs = append(xs, r[name])
		}
		out[name] = median(xs)
	}
	return out
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// fastestEach folds the repetitions' k-th durations into their minimum. The
// k-th cycle (or the k-th admission) of every repetition is the same
// computation on the same inputs, so the fastest observation of each is the
// one the machine disturbed least — a stronger filter than the fastest
// repetition, because a collection or a stolen time slice lands on different
// cycles every time. Lists of unequal length fold over their common prefix.
func fastestEach(reps [][]time.Duration) []time.Duration {
	if len(reps) == 0 {
		return nil
	}
	out := append([]time.Duration(nil), reps[0]...)
	for _, r := range reps[1:] {
		if len(r) < len(out) {
			out = out[:len(r)]
		}
		for k := range out {
			out[k] = min(out[k], r[k])
		}
	}
	return out
}
