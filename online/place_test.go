package online

import (
	"math/rand"
	"testing"
)

// refPlace is Algorithm 1 for one live task written the direct way: the
// best processor if it is idle, healthy and not avoided; else the cheapest
// idle, healthy, non-avoided alternative whose estimate plus transfer is
// within α times the best estimate, ties to the lower ID; and when a
// retry's avoided processor leaves nothing, the same again without the
// avoidance.
func refPlace(est, xfer []float64, busy, healthy []bool, avoid int, alpha float64) (p int, alt bool, ratio float64) {
	pmin := 0
	for q, e := range est {
		if e < est[pmin] {
			pmin = q
		}
	}
	idle := func(q int) bool { return !busy[q] && healthy[q] }
	for {
		if pmin != avoid && idle(pmin) {
			return pmin, false, 1
		}
		best, bestCost := -1, 0.0
		for q := range est {
			if q == pmin || q == avoid || !idle(q) {
				continue
			}
			c := est[q]
			if xfer != nil {
				c += xfer[q]
			}
			if c <= alpha*est[pmin] && (best < 0 || c < bestCost) {
				best, bestCost = q, c
			}
		}
		if best >= 0 {
			return best, true, bestCost / est[pmin]
		}
		if avoid < 0 {
			return -1, false, 0
		}
		avoid = -1
	}
}

// TestTryPlaceMatchesRule links the live placement path to the rule: for
// random estimates, transfer rows and busy, healthy and avoided
// processors, tryPlace claims exactly the processor refPlace names, with
// the same alt flag and cost ratio. np = 70 exceeds the stack-held
// availability mask, so the heap fallback runs too.
func TestTryPlaceMatchesRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, np := range []int{1, 2, 3, 8, 70} {
		for _, alpha := range []float64{1, 1.5, 4, 16} {
			s, err := New(np, alpha)
			if err != nil {
				t.Fatal(err)
			}
			busy, healthy := make([]bool, np), make([]bool, np)
			for trial := 0; trial < 300; trial++ {
				est := make([]float64, np)
				for p := range est {
					est[p] = float64(1 + rng.Intn(16)) // small range: exact ties are common
				}
				var xfer []float64
				if rng.Intn(3) > 0 {
					xfer = make([]float64, np)
					for p := range xfer {
						xfer[p] = float64(rng.Intn(4)) / 2
					}
				}
				for p := 0; p < np; p++ {
					busy[p] = rng.Intn(3) == 0
					healthy[p] = rng.Intn(6) != 0
					s.procs[p].busy.Store(busy[p])
					s.procs[p].healthy.Store(healthy[p])
				}
				avoid := -1
				if rng.Intn(2) == 0 {
					avoid = rng.Intn(np)
				}
				lt, err := s.prepare(Task{EstMs: est, XferMs: xfer}, nil)
				if err != nil {
					t.Fatal(err)
				}
				lt.avoid = avoid

				wantP, wantAlt, wantRatio := refPlace(est, xfer, busy, healthy, avoid, alpha)
				p, ok := s.tryPlace(lt)
				if !ok {
					p = -1
				}
				if int(p) != wantP {
					t.Fatalf("np=%d α=%v trial %d: placed on %d, want %d (est %v xfer %v busy %v healthy %v avoid %d)",
						np, alpha, trial, p, wantP, est, xfer, busy, healthy, avoid)
				}
				if !ok {
					continue
				}
				if lt.alt != wantAlt || lt.ratio != wantRatio {
					t.Fatalf("np=%d α=%v trial %d: alt=%v ratio=%v, want alt=%v ratio=%v",
						np, alpha, trial, lt.alt, lt.ratio, wantAlt, wantRatio)
				}
				if !s.procs[p].busy.Load() {
					t.Fatalf("np=%d α=%v trial %d: processor %d placed but not claimed", np, alpha, trial, p)
				}
			}
		}
	}
}
