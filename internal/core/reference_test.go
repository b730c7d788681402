package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/perturb"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refAPT is APT with Algorithm 1's find2ndBestProc written the direct way:
// every candidate processor's incoming transfer is priced afresh with
// Costs.TransferIn on every offer. APT must decide exactly as it does.
type refAPT struct{ APT }

func (a *refAPT) Select(st *sim.State) []sim.Assignment {
	np := st.System().NumProcs()
	avail := make([]bool, np)
	nAvail := 0
	for _, p := range st.AvailableProcs() {
		avail[p] = true
		nAvail++
	}
	var out []sim.Assignment
	for _, k := range st.Ready() {
		if nAvail == 0 {
			break
		}
		pmin, x := a.c.BestProc(k)
		if avail[pmin] {
			avail[pmin] = false
			nAvail--
			a.stats.Assignments++
			out = append(out, sim.Assignment{Kernel: k, Proc: pmin})
			continue
		}
		palt, altCost, ok := a.refAlternative(st, k, pmin, x, avail)
		if !ok {
			continue
		}
		if a.ConsiderRemaining {
			wait := st.BusyUntil(pmin) - st.Now()
			if wait < 0 {
				wait = 0
			}
			if wait+a.refTransfer(st, k, pmin)+x <= altCost {
				continue
			}
		}
		avail[palt] = false
		nAvail--
		a.stats.Assignments++
		a.stats.AltAssignments++
		a.stats.ByKernel[st.Graph().Kernel(k).Name]++
		out = append(out, sim.Assignment{Kernel: k, Proc: palt})
	}
	return out
}

func (a *refAPT) refAlternative(st *sim.State, k dfg.KernelID, pmin platform.ProcID, x float64, avail []bool) (platform.ProcID, float64, bool) {
	threshold := a.Alpha * x
	best := platform.ProcID(-1)
	bestCost := math.Inf(1)
	for pi, free := range avail {
		p := platform.ProcID(pi)
		if !free || p == pmin {
			continue
		}
		cost := a.c.Exec(k, p) + a.refTransfer(st, k, p)
		if cost <= threshold && cost < bestCost {
			best, bestCost = p, cost
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestCost, true
}

func (a *refAPT) refTransfer(st *sim.State, k dfg.KernelID, p platform.ProcID) float64 {
	return a.c.TransferIn(k, p, func(pred dfg.KernelID) platform.ProcID {
		if pp, ok := st.ProcOf(pred); ok {
			return pp
		}
		return p
	})
}

// refCase is one graph and platform the differential test runs.
type refCase struct {
	name  string
	g     *dfg.Graph
	sys   *platform.System
	gapMs float64 // Poisson mean inter-arrival gap
}

// TestAPTMatchesPerCallReference pins that reading the engine's cached
// transfer rows changes no decision: placements and allocation statistics
// are bit-identical to the per-call reference for every α, both variants,
// closed and Poisson-paced streams, both transfer modes, and with and
// without perturbed actual costs.
func TestAPTMatchesPerCallReference(t *testing.T) {
	scale := scaleCosts(t, 2000)
	cases := []refCase{
		{"suite157", workload.MustSuite(workload.Type2, workload.DefaultSuiteSeed)[9], platform.PaperSystem(4), 5},
		{"scale2k", scale.Graph(), scale.System(), 250},
	}
	noisy, err := perturb.Noise{Model: perturb.NoiseLogNormal, Frac: 0.3, Seed: 7}.Apply(lut.Paper())
	if err != nil {
		t.Fatal(err)
	}
	alts := 0
	for _, tc := range cases {
		arrivals, err := workload.PoissonArrivals(tc.g, tc.gapMs, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []sim.TransferMode{sim.TransferMax, sim.TransferSum} {
			c, err := sim.PrepareCosts(tc.g, tc.sys, lut.Paper(), sim.CostConfig{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			actual, err := sim.PrepareCosts(tc.g, tc.sys, noisy, sim.CostConfig{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, alpha := range []float64{1, 1.5, 4, 16} {
				for _, remaining := range []bool{false, true} {
					for _, paced := range []bool{false, true} {
						for _, act := range []*sim.Costs{nil, actual} {
							opt := sim.Options{ActualCosts: act}
							if paced {
								opt.ArrivalTimes = arrivals
							}
							name := fmt.Sprintf("%s/%v/α=%g/R=%v/paced=%v/actual=%v", tc.name, mode, alpha, remaining, paced, act != nil)
							got := &APT{Alpha: alpha, ConsiderRemaining: remaining}
							want := &refAPT{APT{Alpha: alpha, ConsiderRemaining: remaining}}
							gotRes, err := sim.Run(c, got, opt)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							wantRes, err := sim.Run(c, want, opt)
							if err != nil {
								t.Fatalf("%s reference: %v", name, err)
							}
							if !reflect.DeepEqual(gotRes.Placements, wantRes.Placements) {
								t.Errorf("%s: placements differ from the per-call reference", name)
							}
							if gs, ws := got.Stats(), want.Stats(); !reflect.DeepEqual(gs, ws) {
								t.Errorf("%s: stats %+v, reference %+v", name, gs, ws)
							}
							alts += got.Stats().AltAssignments
						}
					}
				}
			}
		}
	}
	if alts == 0 {
		t.Fatal("no run took an alternative processor: the comparison never reached find2ndBestProc")
	}
}
