package core

import "math"

// PickAlt is find2ndBestProc of Algorithm 1, the one implementation of the
// alternative-processor rule that both the simulator (APT.Select) and the
// live scheduler (online) call. Among the processors marked free it
// returns the one with the least exec[p] + xfer[p], provided that cost is
// within threshold = α·x (Eq. 8). Ties go to the lower ID. It returns
// p = -1 when no free processor qualifies. A nil xfer means no transfer
// cost. Callers mark pmin as not free.
//
// exec[p] > threshold rules p out before xfer[p] is read; that is exact
// because transfer times are never negative.
//
//apt:hotpath
func PickAlt(exec, xfer []float64, free []bool, threshold float64) (p int, cost float64) {
	p, cost = -1, math.Inf(1)
	for q, ok := range free {
		if !ok || exec[q] > threshold {
			continue
		}
		c := exec[q]
		if xfer != nil {
			c += xfer[q]
		}
		// Strict < plus ascending iteration makes ties break to lower IDs.
		if c <= threshold && c < cost {
			p, cost = q, c
		}
	}
	return p, cost
}

// anyWithin reports whether some free processor's execution time alone is
// within threshold. It is PickAlt's exec-only pre-check: when it is false
// PickAlt must return -1, so a caller whose transfer row is costly to
// build can skip building it.
func anyWithin(exec []float64, free []bool, threshold float64) bool {
	for p, ok := range free {
		if ok && exec[p] <= threshold {
			return true
		}
	}
	return false
}
