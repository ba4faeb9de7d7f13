package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (q in (0, 1]) of xs:
// the smallest sample with at least a q share of the samples at or
// below it. xs is not modified; an empty slice yields NaN so a missing
// sample can never pass for a fast one.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// dueLatency is an open-loop request's latency measured from the time
// it was due: how late the generator submitted it plus the server's
// own admission-to-completion time. Timing from the due time charges a
// stalled generator's backlog to the requests it delayed, which timing
// from the admission stamp alone would hide.
func dueLatency(dueSec, submitSec, arrivalSec, doneSec float64) float64 {
	late := submitSec - dueSec
	if late < 0 {
		late = 0
	}
	return late + (doneSec - arrivalSec)
}

// rateLadder returns the fixed geometric ladder of offered rates the
// SLO search walks: lo, lo·ratio, … up to and including the first rung
// at or above hi. Fixing the rungs (rather than searching a continuum)
// makes the reported rate one of a known set, so two runs agree
// exactly unless a rung's verdict flips.
func rateLadder(lo, hi, ratio float64) []float64 {
	var rungs []float64
	for r := lo; ; r *= ratio {
		rungs = append(rungs, math.Round(r))
		if r >= hi {
			return rungs
		}
	}
}

// bisectLadder finds the highest rung that passes, assuming verdicts
// are monotone (every rung below a passing rung passes). It probes
// O(log n) rungs and returns the index of the highest passing rung, or
// -1 when even the lowest rung fails, plus the probed indices in order.
func bisectLadder(n int, pass func(i int) bool) (best int, probed []int) {
	lo, hi := -1, n // invariant: rung lo passes (or lo = -1), rung hi fails (or hi = n)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		probed = append(probed, mid)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}

// closure is the share of a measured step the kernel ladder accounts
// for: Σ calls·time over the ladder's ops, divided by the measured
// step time. 1 means the standalone calls sum exactly to the step;
// below 1, the step spends time outside the timed calls (residual
// adds, gathers, scatters); above 1, standalone calls run slower than
// inside the step (cold caches).
func closure(calls, perCallSec []float64, stepSec float64) float64 {
	var sum float64
	for i := range calls {
		sum += calls[i] * perCallSec[i]
	}
	return sum / stepSec
}
