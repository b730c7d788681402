package core

import (
	"math"
	"testing"
)

// yearMs is the price the simulator gives a missing link (sim's
// unusableLinkMs): a transfer large enough to swamp any threshold.
const yearMs = 365 * 24 * 3600 * 1000.0

// refPick is find2ndBestProc written the direct way: price every free
// processor, keep those within threshold, take the cheapest, ties to the
// lower ID. It has no exec-only skip.
func refPick(exec, xfer []float64, free []bool, threshold float64) (int, float64) {
	best, bestCost := -1, 0.0
	for p := range free {
		if !free[p] {
			continue
		}
		c := exec[p]
		if xfer != nil {
			c += xfer[p]
		}
		if c <= threshold && (best < 0 || c < bestCost) {
			best, bestCost = p, c
		}
	}
	return best, bestCost
}

// pickCase decodes fuzz bytes into one call of the rule, shaped the way
// both runtimes call it: exec > 0, xfer >= 0 (or nil), pmin the lowest-ID
// minimum of exec and never free, threshold = α·exec[pmin]. Each
// processor takes three bytes (exec, xfer, free); short input repeats.
// Exec times are multiples of 1/4 and transfers come from a small set, so
// exact cost ties are common.
func pickCase(data []byte, alpha float64, nilXfer bool) (exec, xfer []float64, free []bool, threshold float64) {
	if len(data) == 0 {
		data = []byte{0}
	}
	at := func(i int) byte { return data[i%len(data)] }
	np := 1 + int(at(0))%16
	exec = make([]float64, np)
	xfer = make([]float64, np)
	free = make([]bool, np)
	for p := 0; p < np; p++ {
		e, x, f := at(1+3*p), at(2+3*p), at(3+3*p)
		exec[p] = float64(1+e%32) / 4
		switch x % 6 {
		case 0:
			xfer[p] = 0
		case 1:
			xfer[p] = 0.25
		case 2:
			xfer[p] = 1
		case 3:
			xfer[p] = float64(x) / 8
		case 4:
			xfer[p] = yearMs
		case 5:
			xfer[p] = math.SmallestNonzeroFloat64
		}
		free[p] = f%3 != 0
	}
	pmin := 0
	for p, e := range exec {
		if e < exec[pmin] {
			pmin = p
		}
	}
	free[pmin] = false
	if nilXfer {
		xfer = nil
	}
	return exec, xfer, free, alpha * exec[pmin]
}

// FuzzPickAlt pins PickAlt and its exec-only pre-check to the direct rule:
// the pre-check is true exactly when some free processor's exec time is
// within threshold, PickAlt agrees with refPick on processor and cost, and
// whenever the pre-check is false PickAlt finds nothing, so skipping the
// transfer row then changes no decision.
func FuzzPickAlt(f *testing.F) {
	// Exact ties: threshold 2, processors 1 and 2 cost 2 each
	// (1.75+0.25 and 2+0).
	f.Add([]byte{2, 1, 0, 1, 6, 1, 1, 7, 0, 1}, 4.0, false)
	// α = 1: only an exec equal to pmin's with no transfer qualifies.
	f.Add([]byte{3, 3, 0, 1, 3, 0, 1, 3, 2, 1, 3, 0, 1}, 1.0, false)
	f.Add([]byte{3, 3, 0, 1, 3, 0, 1, 3, 2, 1, 3, 0, 1}, 1.0, true)
	// α = 1 with every free processor's exec above the threshold.
	f.Add([]byte{2, 3, 0, 1, 7, 0, 1, 9, 0, 1}, 1.0, false)
	// All busy.
	f.Add([]byte{5, 1, 0, 0, 2, 0, 0, 3, 0, 0}, 16.0, false)
	// Missing links: only processor 3 is reachable within the threshold.
	f.Add([]byte{3, 0, 4, 1, 1, 4, 1, 1, 4, 1, 2, 0, 1}, 16.0, false)
	// Many processors, wide α, no transfer row.
	f.Add([]byte{15, 9, 3, 1, 4, 5, 2, 6, 7, 1, 8, 2, 2}, 64.0, true)
	f.Fuzz(func(t *testing.T, data []byte, alpha float64, nilXfer bool) {
		if !(alpha >= 1) || math.IsInf(alpha, 1) {
			t.Skip("α must be finite and >= 1")
		}
		exec, xfer, free, threshold := pickCase(data, alpha, nilXfer)
		wantP, wantCost := refPick(exec, xfer, free, threshold)
		within := false
		for p := range free {
			within = within || (free[p] && exec[p] <= threshold)
		}
		if got := anyWithin(exec, free, threshold); got != within {
			t.Fatalf("anyWithin = %v, want %v (exec %v free %v threshold %v)", got, within, exec, free, threshold)
		}
		if !within && wantP >= 0 {
			t.Fatalf("pre-check says wait but the rule picks %d", wantP)
		}
		p, cost := PickAlt(exec, xfer, free, threshold)
		if p != wantP || (p >= 0 && cost != wantCost) {
			t.Fatalf("PickAlt = (%d, %v), want (%d, %v) (exec %v xfer %v free %v threshold %v)",
				p, cost, wantP, wantCost, exec, xfer, free, threshold)
		}
	})
}
