package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/workload"
)

// xferProbe checks State.TransferRow from inside a live run. Every Select it
// compares every ready kernel's row, bit for bit, with a fresh
// Costs.TransferIn pricing, and checks that asking again returns the same
// slice. It delays assignments — nothing on odd calls while some processor
// is busy, and otherwise the newest ready kernels first — so rows stay
// cached across Selects, the ready list gains tombstones and compacts, and
// committed kernels' slots are recycled for kernels that become ready later.
type xferProbe struct {
	t         *testing.T
	calls     int
	mismatch  int
	compacted bool // a still-ready kernel moved in the ready list
	withRow   int  // kernels with predecessors that were offered
	seen      map[dfg.KernelID]int32

	ready []dfg.KernelID
	procs []platform.ProcID
	out   []Assignment
}

func (p *xferProbe) Name() string { return "xfer-probe" }

func (p *xferProbe) Prepare(*Costs) error {
	p.calls = 0
	p.seen = map[dfg.KernelID]int32{}
	return nil
}

func (p *xferProbe) Select(st *State) []Assignment {
	p.calls++
	c := st.Costs()
	placed := func(pred dfg.KernelID) platform.ProcID {
		pp, ok := st.ProcOf(pred)
		if !ok {
			p.t.Fatalf("ready kernel has uncommitted predecessor %d", pred)
		}
		return pp
	}
	p.ready = st.AppendReady(p.ready[:0])
	for _, k := range p.ready {
		row := st.TransferRow(k)
		if len(row) != st.System().NumProcs() {
			p.t.Fatalf("TransferRow(%d) has %d entries, want %d", k, len(row), st.System().NumProcs())
		}
		for pi := range row {
			want := c.TransferIn(k, platform.ProcID(pi), placed)
			if math.Float64bits(row[pi]) != math.Float64bits(want) && p.mismatch < 5 {
				p.mismatch++
				p.t.Errorf("call %d: TransferRow(%d)[%d] = %v, TransferIn = %v", p.calls, k, pi, row[pi], want)
			}
		}
		if again := st.TransferRow(k); &again[0] != &row[0] {
			p.t.Errorf("call %d: second TransferRow(%d) returned a different slice", p.calls, k)
		}
		idx := st.e.readyIdx[k]
		if old, ok := p.seen[k]; !ok {
			if st.Graph().InDegree(k) > 0 {
				p.withRow++
			}
		} else if old != idx {
			p.compacted = true
		}
		p.seen[k] = idx
	}
	p.procs = st.AppendAvailableProcs(p.procs[:0])
	if p.calls%2 == 1 && len(p.procs) < st.System().NumProcs() {
		return nil // a busy processor guarantees a pending event
	}
	out := p.out[:0]
	for i := len(p.ready) - 1; i >= 0 && len(p.procs) > 0; i-- {
		out = append(out, Assignment{Kernel: p.ready[i], Proc: p.procs[0]})
		p.procs = p.procs[1:]
	}
	p.out = out
	return out
}

// TestTransferRowMatchesTransferIn runs the probe over suite graphs in both
// transfer modes on one warm Runner, so every run after the first starts
// from a previous run's slots and rows.
func TestTransferRowMatchesTransferIn(t *testing.T) {
	graphs := workload.MustSuite(workload.Type2, workload.DefaultSuiteSeed)
	r := NewRunner()
	for _, mode := range []TransferMode{TransferMax, TransferSum} {
		for _, gi := range []int{9, 4, 9} {
			c, err := PrepareCosts(graphs[gi], platform.PaperSystem(4), lut.Paper(), CostConfig{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			probe := &xferProbe{t: t}
			res, err := r.Run(c, probe, Options{})
			if err != nil {
				t.Fatalf("%v/graph %d: %v", mode, gi, err)
			}
			if err := res.Validate(c.Graph(), c.System()); err != nil {
				t.Fatalf("%v/graph %d: %v", mode, gi, err)
			}
			if !probe.compacted {
				t.Errorf("%v/graph %d: the ready list never compacted under the probe", mode, gi)
			}
			// Every offered kernel with predecessors filled one row; fewer
			// slots than that means commit freed slots and later fills
			// reused them — and the probe saw no stale value in any. Slot
			// 0 is the shared zero row.
			slots := len(r.e.xferRows)/c.System().NumProcs() - 1
			if slots == 0 || slots >= probe.withRow {
				t.Errorf("%v/graph %d: %d slots for %d filled rows, want reuse", mode, gi, slots, probe.withRow)
			}
			if free := freeSlots(r); free != slots {
				t.Errorf("%v/graph %d: %d of %d slots free after the run", mode, gi, free, slots)
			}
		}
	}
}

// freeSlots walks the runner's transfer-row free list. A list longer than
// the slot count has a cycle; the walk stops there.
func freeSlots(r *Runner) int {
	np := r.e.costs.np
	n := 0
	for slot := r.e.xferFree; slot > 0 && n <= len(r.e.xferRows)/np; slot = int32(r.e.xferRows[int(slot)*np]) {
		n++
	}
	return n
}

// TestTransferRowUnusedCostsNothing pins that a policy which never asks
// leaves the kernel index unsized.
func TestTransferRowUnusedCostsNothing(t *testing.T) {
	c := suiteCosts(t, 1)[0]
	r := NewRunner()
	if _, err := r.Run(c, &xferProbe{t: t}, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(c, &leanGreedy{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(r.e.xferSlot) != 0 || len(r.e.xferRows) != 0 || r.e.xferFree != 0 {
		t.Errorf("run without TransferRow left %d slots, %d row entries, free-list head %d", len(r.e.xferSlot), len(r.e.xferRows), r.e.xferFree)
	}
}

// rowGreedy is leanGreedy that reads every ready kernel's transfer row.
type rowGreedy struct {
	leanGreedy
	sum float64
}

func (g *rowGreedy) Select(st *State) []Assignment {
	for _, k := range st.AppendReady(g.ready[:0]) {
		g.sum += st.TransferRow(k)[0]
	}
	return g.leanGreedy.Select(st)
}

// TestTransferRowWarmAllocFree pins that a warm Runner serves and caches
// rows from its retained buffers: the run allocates what leanGreedy's does.
func TestTransferRowWarmAllocFree(t *testing.T) {
	c := suiteCosts(t, 1)[0]
	r := NewRunner()
	run := func(pol Policy) float64 {
		if _, err := r.Run(c, pol, Options{}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := r.Run(c, pol, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(&leanGreedy{})
	pol := &rowGreedy{}
	if got := run(pol); got > base {
		t.Errorf("warm run reading transfer rows allocated %v times, leanGreedy %v", got, base)
	}
	if pol.sum <= 0 {
		t.Error("rowGreedy never priced a transfer")
	}
}

// notReadyAsker asks for the row of a kernel that still waits on a
// predecessor.
type notReadyAsker struct{ leanGreedy }

func (p *notReadyAsker) Select(st *State) []Assignment {
	for k := 0; k < st.Graph().NumKernels(); k++ {
		if st.Graph().InDegree(dfg.KernelID(k)) > 0 {
			st.TransferRow(dfg.KernelID(k))
		}
	}
	return p.leanGreedy.Select(st)
}

// committedAsker prices every ready kernel's row and, once it has
// committed a kernel with predecessors, asks for that kernel's row again.
type committedAsker struct {
	rowGreedy
	asked dfg.KernelID
}

func (p *committedAsker) Select(st *State) []Assignment {
	if p.asked >= 0 {
		st.TransferRow(p.asked)
	}
	out := p.rowGreedy.Select(st)
	for _, a := range out {
		if st.Graph().InDegree(a.Kernel) > 0 {
			p.asked = a.Kernel
		}
	}
	return out
}

// TestTransferRowRejectsUnreadyKernel pins that only ready kernels have a
// row: one still waiting on a predecessor has none, and a committed
// kernel's slot may already hold another kernel's row.
func TestTransferRowRejectsUnreadyKernel(t *testing.T) {
	c := suiteCosts(t, 1)[0]
	for _, pol := range []Policy{&notReadyAsker{}, &committedAsker{asked: -1}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "not ready") {
					t.Errorf("%T: panic = %q, want a not-ready diagnostic", pol, msg)
				}
			}()
			_, _ = NewRunner().Run(c, pol, Options{})
		}()
	}
}
