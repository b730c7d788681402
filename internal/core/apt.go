// Package core implements the thesis's contribution: the Alternative
// Processor within Threshold (APT) scheduling heuristic (paper Ch. 3,
// Algorithm 1).
//
// APT is a dynamic policy that behaves like MET — prefer the processor
// with the minimum execution time (pmin) for each kernel — but relaxes
// MET's insistence on waiting for pmin. When pmin is busy, APT may assign
// the kernel to an *alternative* processor palt, defined as
//
//	"a processor for which the addition of execution and the data
//	 transfer times is less than or equal to the policy's established
//	 threshold, and is available to execute kernel vi"
//
// with threshold = α·x (Eq. 8), where x is the kernel's execution time on
// pmin and α ≥ 1 is the flexibility factor. Small α makes APT mimic MET;
// large α trades per-kernel optimality for lower waiting, which pays off
// until the alternative processors become too slow (the paper's "valley"
// with its minimum at thresholdbrk, α = 4 on the paper's system).
//
// The package also provides APT-R, the extension sketched in the thesis's
// conclusion ("in the future, we will consider the remaining execution
// time in the optimal processor before deciding whether to assign to an
// alternative processor").
package core

import (
	"fmt"
	"math"

	"repro/internal/dfg"
	"repro/internal/platform"
	"repro/internal/sim"
)

// DefaultAlpha is the flexibility factor the paper found optimal
// (thresholdbrk) for its CPU–GPU–FPGA system: α = 4.
const DefaultAlpha = 4

// APT implements sim.Policy.
type APT struct {
	// Alpha is the flexibility factor α ≥ 1 of Eq. 8. Zero selects
	// DefaultAlpha.
	Alpha float64
	// ConsiderRemaining enables the APT-R variant: before settling for an
	// alternative processor, compare the kernel's estimated finish time on
	// the alternative with its estimated finish if it instead waited for
	// pmin to drain, and wait when waiting wins. The thesis proposes this
	// as future work; benches ablate it.
	ConsiderRemaining bool

	c     *sim.Costs
	stats AltStats

	// Scratch buffers reused across Select calls; refilled from the engine
	// via append-style accessors so steady-state scheduling is
	// allocation-free.
	ready []dfg.KernelID
	procs []platform.ProcID
	avail []bool
	out   []sim.Assignment
}

// AltStats records how often APT exercised its flexibility — the data
// behind the thesis's allocation analyses (Tables 15 and 16).
type AltStats struct {
	// Assignments counts all kernels assigned.
	Assignments int
	// AltAssignments counts kernels sent to an alternative (non-pmin)
	// processor.
	AltAssignments int
	// ByKernel counts alternative assignments per kernel name.
	ByKernel map[string]int
}

// New returns an APT policy with the given flexibility factor (0 means
// DefaultAlpha).
func New(alpha float64) *APT { return &APT{Alpha: alpha} }

// NewR returns the APT-R future-work variant with the given α.
func NewR(alpha float64) *APT { return &APT{Alpha: alpha, ConsiderRemaining: true} }

// Name implements sim.Policy.
func (a *APT) Name() string {
	if a.ConsiderRemaining {
		return "APT-R"
	}
	return "APT"
}

// Prepare implements sim.Policy.
func (a *APT) Prepare(c *sim.Costs) error {
	if a.Alpha == 0 {
		a.Alpha = DefaultAlpha
	}
	if math.IsNaN(a.Alpha) || math.IsInf(a.Alpha, 0) || a.Alpha < 1 {
		return fmt.Errorf("core: APT flexibility factor α must be finite and >= 1, got %v", a.Alpha)
	}
	a.c = c
	// Reuse the per-kernel map across Prepare calls so re-running a pooled
	// policy instance does not allocate; Stats() hands out copies.
	byKernel := a.stats.ByKernel
	if byKernel == nil {
		byKernel = map[string]int{}
	} else {
		clear(byKernel)
	}
	a.stats = AltStats{ByKernel: byKernel}
	return nil
}

// Stats returns the allocation statistics accumulated since Prepare.
func (a *APT) Stats() AltStats {
	out := a.stats
	out.ByKernel = make(map[string]int, len(a.stats.ByKernel))
	for k, v := range a.stats.ByKernel { //lint:ordered — per-key map copy; writes are independent
		out.ByKernel[k] = v
	}
	return out
}

// Select implements sim.Policy, following Algorithm 1: every ready kernel,
// in first-come-first-serve order, is assigned to pmin when pmin is
// available; otherwise to the cheapest available alternative processor
// within the threshold; otherwise it waits.
//
//apt:hotpath
func (a *APT) Select(st *sim.State) []sim.Assignment {
	np := st.System().NumProcs()
	if cap(a.avail) < np {
		a.avail = make([]bool, np)
	}
	avail := a.avail[:np]
	clear(avail)
	a.procs = st.AppendAvailableProcs(a.procs[:0])
	nAvail := 0
	for _, p := range a.procs {
		avail[p] = true
		nAvail++
	}
	a.ready = st.AppendReady(a.ready[:0])
	out := a.out[:0]
	for _, k := range a.ready {
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
		palt, altCost, ok := a.findAlternative(st, k, pmin, x, avail)
		if !ok {
			continue // wait for pmin
		}
		if a.ConsiderRemaining && a.waitingWins(st, st.TransferRow(k)[pmin], pmin, x, altCost) {
			continue // APT-R: pmin will be free soon enough; wait
		}
		avail[palt] = false
		nAvail--
		a.stats.Assignments++
		a.stats.AltAssignments++
		a.stats.ByKernel[st.Graph().Kernel(k).Name]++
		out = append(out, sim.Assignment{Kernel: k, Proc: palt})
	}
	a.out = out
	return out
}

// findAlternative implements find2ndBestProc of Algorithm 1: among the
// processors still available in this batch, pick the one minimising
// execution time plus incoming data transfer time, exec[p] + xfer[p] from
// the kernel's exec and transfer rows, provided that total is within
// threshold = α·x. Returns ok=false when no available processor qualifies.
func (a *APT) findAlternative(
	st *sim.State,
	k dfg.KernelID,
	pmin platform.ProcID,
	x float64,
	avail []bool,
) (platform.ProcID, float64, bool) {
	threshold := a.Alpha * x
	exec := a.c.ExecRow(k)
	var xfer []float64
	best := platform.ProcID(-1)
	bestCost := math.Inf(1)
	for pi, free := range avail {
		p := platform.ProcID(pi)
		// Transfers are never negative, so exec[p] > threshold rules p out
		// exactly; the transfer row is fetched only for a candidate.
		if !free || p == pmin || exec[p] > threshold {
			continue
		}
		if xfer == nil {
			xfer = st.TransferRow(k)
		}
		cost := exec[p] + xfer[p]
		// Strict < plus ascending iteration makes ties break to lower IDs.
		if cost <= threshold && cost < bestCost {
			best, bestCost = p, cost
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestCost, true
}

// waitingWins estimates, for APT-R, whether waiting for pmin finishes the
// kernel earlier than taking the alternative now; xferMin is the kernel's
// incoming-transfer time onto pmin.
func (a *APT) waitingWins(st *sim.State, xferMin float64, pmin platform.ProcID, x, altCost float64) bool {
	wait := st.BusyUntil(pmin) - st.Now()
	if wait < 0 {
		wait = 0
	}
	finishIfWait := wait + xferMin + x
	return finishIfWait <= altCost
}
