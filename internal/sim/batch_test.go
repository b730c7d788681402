package sim

import (
	"reflect"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/workload"
)

// suiteCosts prepares cost oracles over the first n suite graphs.
func suiteCosts(t testing.TB, n int) []*Costs {
	t.Helper()
	graphs := workload.MustSuite(workload.Type2, workload.DefaultSuiteSeed)
	if n > len(graphs) {
		n = len(graphs)
	}
	out := make([]*Costs, n)
	for i := 0; i < n; i++ {
		c, err := PrepareCosts(graphs[i], platform.PaperSystem(4), lut.Paper(), CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

// leanGreedy is an allocation-free greedy policy used to exercise the
// append-style accessors and the warm engine path.
type leanGreedy struct {
	ready []dfg.KernelID
	procs []platform.ProcID
	out   []Assignment
}

func (g *leanGreedy) Name() string           { return "lean-greedy" }
func (g *leanGreedy) Prepare(c *Costs) error { return nil }
func (g *leanGreedy) Select(st *State) []Assignment {
	g.procs = st.AppendAvailableProcs(g.procs[:0])
	g.ready = st.AppendReady(g.ready[:0])
	procs := g.procs
	out := g.out[:0]
	for _, k := range g.ready {
		if len(procs) == 0 {
			break
		}
		out = append(out, Assignment{Kernel: k, Proc: procs[0]})
		procs = procs[1:]
	}
	g.out = out
	return out
}

func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	costs := suiteCosts(t, 3)
	r := NewRunner()
	for round := 0; round < 2; round++ {
		// Vary graph size across calls so buffer reuse has to re-dimension.
		for i := len(costs) - 1; i >= 0; i-- {
			warm, err := r.Run(costs[i], &leanGreedy{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(costs[i], &leanGreedy{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm, fresh) {
				t.Fatalf("round %d graph %d: warm Runner result differs from fresh Run", round, i)
			}
			if err := warm.Validate(costs[i].Graph(), costs[i].System()); err != nil {
				t.Errorf("round %d graph %d: %v", round, i, err)
			}
		}
	}
}

// outOfOrderStatic assigns every kernel of the graph at time zero, grouped
// by processor (kernel k goes to proc k mod np, all of proc 0's kernels
// first, then proc 1's, ...). Within each processor the queue stays in
// ascending kernel-ID order — a valid topological order for the generated
// suites — but the commit sequence drains the time-zero ready FIFO far out
// of FCFS order. It is the regression scenario for commit()'s indexed
// ready-list removal: removing from the middle and tail of the ready FIFO
// must not disturb the order of or drop the remaining entries.
type outOfOrderStatic struct {
	done bool
	np   int
}

func (p *outOfOrderStatic) Name() string { return "out-of-order-static" }
func (p *outOfOrderStatic) Prepare(c *Costs) error {
	p.np = c.System().NumProcs()
	return nil
}
func (p *outOfOrderStatic) Select(st *State) []Assignment {
	if p.done {
		return nil
	}
	p.done = true
	n := st.Graph().NumKernels()
	out := make([]Assignment, 0, n)
	for proc := 0; proc < p.np; proc++ {
		for k := proc; k < n; k += p.np {
			out = append(out, Assignment{
				Kernel: dfg.KernelID(k),
				Proc:   platform.ProcID(proc),
			})
		}
	}
	return out
}

func TestCommitOutOfReadyOrder(t *testing.T) {
	for _, typ := range []workload.GraphType{workload.Type1, workload.Type2} {
		g := workload.MustSuite(typ, workload.DefaultSuiteSeed)[0]
		c, err := PrepareCosts(g, platform.PaperSystem(4), lut.Paper(), CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, &outOfOrderStatic{}, Options{})
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if res.Assignments != g.NumKernels() {
			t.Errorf("%v: %d assignments for %d kernels", typ, res.Assignments, g.NumKernels())
		}
		if err := res.Validate(g, c.System()); err != nil {
			t.Errorf("%v: %v", typ, err)
		}
	}
}

// TestReadyListRemoval unit-tests the tombstoned FIFO directly: removals
// from the middle and tail keep the remaining order, compaction keeps the
// index map consistent, and re-pushing works after compaction.
func TestReadyListRemoval(t *testing.T) {
	const n = 8
	e := &engine{readyIdx: make([]int32, n)}
	for i := range e.readyIdx {
		e.readyIdx[i] = -1
	}
	for i := 0; i < n; i++ {
		e.pushReady(dfg.KernelID(i))
	}
	st := &State{e: e}
	// Remove out of order: tail, middle, head.
	for _, k := range []dfg.KernelID{7, 3, 0, 5} {
		e.removeReady(k)
	}
	want := []dfg.KernelID{1, 2, 4, 6}
	if got := st.Ready(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after removals: ready = %v, want %v", got, want)
	}
	if e.readyLen() != len(want) {
		t.Fatalf("readyLen = %d, want %d", e.readyLen(), len(want))
	}
	// Every surviving kernel's index entry must point at itself.
	for _, k := range want {
		i := e.readyIdx[k]
		if i < 0 || e.ready[i] != k {
			t.Fatalf("readyIdx[%d] = %d inconsistent with ready %v", k, i, e.ready)
		}
	}
	// Remove the rest, then rebuild; double-removal must be a no-op.
	e.removeReady(3)
	for _, k := range want {
		e.removeReady(k)
	}
	if e.readyLen() != 0 {
		t.Fatalf("readyLen = %d after removing all", e.readyLen())
	}
	e.pushReady(5)
	e.pushReady(2)
	if got := st.Ready(); !reflect.DeepEqual(got, []dfg.KernelID{5, 2}) {
		t.Fatalf("after re-push: ready = %v", got)
	}
}

// TestEngineWarmRunAllocs pins the allocation budget of a warm engine run:
// once a Runner's buffers reach their high-water mark, a run may allocate
// only what escapes into the Result (placements, proc stats, the Result
// itself, the State handle and λ aggregation).
func TestEngineWarmRunAllocs(t *testing.T) {
	c := suiteCosts(t, 1)[0]
	r := NewRunner()
	pol := &leanGreedy{}
	if _, err := r.Run(c, pol, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(c, pol, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// 157-kernel graph: placements + ProcStats + Result + State + stats
	// scratch. The budget is deliberately loose against GC accounting
	// noise but far below the seed's ~1000 allocations per run.
	if allocs > 16 {
		t.Errorf("warm engine run allocated %v times, want <= 16", allocs)
	}
}

// accessorProbe measures, from inside a live simulation, the allocation
// cost of the append-style State accessors with reused buffers.
type accessorProbe struct {
	leanGreedy
	readyAllocs, procAllocs, queueAllocs float64
	measured                             bool
}

func (p *accessorProbe) Name() string { return "accessor-probe" }
func (p *accessorProbe) Select(st *State) []Assignment {
	if !p.measured && st.ReadyLen() > 0 {
		p.measured = true
		p.readyAllocs = testing.AllocsPerRun(50, func() {
			p.ready = st.AppendReady(p.ready[:0])
		})
		p.procAllocs = testing.AllocsPerRun(50, func() {
			p.procs = st.AppendAvailableProcs(p.procs[:0])
		})
		var q []dfg.KernelID
		q = make([]dfg.KernelID, 0, 64)
		p.queueAllocs = testing.AllocsPerRun(50, func() {
			q = st.AppendQueuedKernels(q[:0], 0)
		})
	}
	return p.leanGreedy.Select(st)
}

func TestAppendAccessorsAllocFree(t *testing.T) {
	c := suiteCosts(t, 1)[0]
	probe := &accessorProbe{}
	// Warm the probe's buffers with one run, then measure on a second.
	if _, err := Run(c, probe, Options{}); err != nil {
		t.Fatal(err)
	}
	if !probe.measured {
		t.Fatal("probe never measured")
	}
	if probe.readyAllocs != 0 {
		t.Errorf("AppendReady allocated %v times per call, want 0", probe.readyAllocs)
	}
	if probe.procAllocs != 0 {
		t.Errorf("AppendAvailableProcs allocated %v times per call, want 0", probe.procAllocs)
	}
	if probe.queueAllocs != 0 {
		t.Errorf("AppendQueuedKernels allocated %v times per call, want 0", probe.queueAllocs)
	}
}

// BenchmarkRunnerWarm measures the warm engine path: same workload as
// BenchmarkEngineRun but with a reused Runner and an allocation-free
// policy.
func BenchmarkRunnerWarm(b *testing.B) {
	c := benchGraphCosts(b)
	r := NewRunner()
	pol := &leanGreedy{}
	if _, err := r.Run(c, pol, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(c, pol, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
