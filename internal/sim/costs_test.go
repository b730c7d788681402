package sim

import (
	"math"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/workload"
)

func TestPrepareCostsValidation(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	if _, err := PrepareCosts(nil, env.sys, env.tab, CostConfig{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := PrepareCosts(g, env.sys, env.tab, CostConfig{ElemBytes: -1}); err == nil {
		t.Error("negative ElemBytes accepted")
	}
	// Kernel missing from the table.
	b := dfg.NewBuilder()
	b.AddKernel(dfg.Kernel{Name: "mystery", DataElems: 10})
	bad := b.MustBuild()
	if _, err := PrepareCosts(bad, env.sys, env.tab, CostConfig{}); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestCostsExecAndBest(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	ka := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	kb := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	g := b.MustBuild()
	c := mustCosts(t, g, env)

	cpu := env.sys.ByKind(platform.CPU)[0]
	gpu := env.sys.ByKind(platform.GPU)[0]
	fpga := env.sys.ByKind(platform.FPGA)[0]

	if got := c.Exec(ka, cpu); got != 10 {
		t.Errorf("Exec(a,cpu) = %v, want 10", got)
	}
	if p, ms := c.BestProc(ka); p != gpu || ms != 2 {
		t.Errorf("BestProc(a) = %d/%v, want gpu/2", p, ms)
	}
	if p, ms := c.BestProc(kb); p != fpga || ms != 1 {
		t.Errorf("BestProc(b) = %d/%v, want fpga/1", p, ms)
	}
	if got := c.MeanExec(ka); math.Abs(got-(10+2+50)/3.0) > 1e-9 {
		t.Errorf("MeanExec(a) = %v", got)
	}
}

func TestTransferMs(t *testing.T) {
	env := tiny(t, 4) // 4 GB/s
	c := mustCosts(t, singleKernelGraph(t), env)
	if got := c.TransferMs(1000, 0, 0); got != 0 {
		t.Errorf("same-proc transfer = %v, want 0", got)
	}
	// 1e6 elems * 4 B = 4e6 B at 4e6 B/ms = 1 ms.
	if got := c.TransferMs(1_000_000, 0, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("transfer = %v, want 1", got)
	}
}

func TestTransferUnusableLink(t *testing.T) {
	b := platform.NewBuilder()
	p0 := b.AddProcessor(platform.CPU, "")
	p1 := b.AddProcessor(platform.GPU, "")
	sys := b.MustBuild() // no rates set: links are 0 GB/s
	tab := tiny(t, 4).tab
	gb := dfg.NewBuilder()
	gb.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	g := gb.MustBuild()
	c, err := PrepareCosts(g, sys, tab, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TransferMs(1, p0, p1); got != unusableLinkMs {
		t.Errorf("unusable link priced %v, want %v", got, unusableLinkMs)
	}
}

func TestTransferInModes(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	// Two predecessors, each shipping 1e6 elements (1 ms each on 4 GB/s).
	p1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1_000_000})
	p2 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1_000_000})
	k := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(p1, k).AddEdge(p2, k)
	g := b.MustBuild()

	cpu := platform.ProcID(0)
	gpu := platform.ProcID(1)
	fpga := platform.ProcID(2)
	placement := func(dfg.KernelID) platform.ProcID { return gpu } // both preds on GPU

	cMax, err := PrepareCosts(g, env.sys, env.tab, CostConfig{Mode: TransferMax})
	if err != nil {
		t.Fatal(err)
	}
	if got := cMax.TransferIn(k, cpu, placement); math.Abs(got-1) > 1e-9 {
		t.Errorf("max mode = %v, want 1", got)
	}
	cSum, err := PrepareCosts(g, env.sys, env.tab, CostConfig{Mode: TransferSum})
	if err != nil {
		t.Fatal(err)
	}
	if got := cSum.TransferIn(k, cpu, placement); math.Abs(got-2) > 1e-9 {
		t.Errorf("sum mode = %v, want 2", got)
	}
	// Predecessors co-located with the kernel cost nothing.
	onSame := func(dfg.KernelID) platform.ProcID { return cpu }
	if got := cMax.TransferIn(k, cpu, onSame); got != 0 {
		t.Errorf("co-located transfer = %v, want 0", got)
	}
	_ = fpga
}

func TestMeanTransfer(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	u := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1_000_000})
	v := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 1000})
	b.AddEdge(u, v)
	g := b.MustBuild()
	c := mustCosts(t, g, env)
	// 6 ordered distinct pairs, each 1 ms, averaged over 9 ordered pairs
	// (diagonal contributes 0): 6/9 ms.
	want := 6.0 / 9.0
	if got := c.MeanTransfer(u); math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanTransfer = %v, want %v", got, want)
	}
}

func TestTransferModeString(t *testing.T) {
	if TransferMax.String() != "max" || TransferSum.String() != "sum" {
		t.Error("TransferMode.String wrong")
	}
}

func TestElemBytesScalesTransfers(t *testing.T) {
	env := tiny(t, 4)
	g := singleKernelGraph(t)
	c8, err := PrepareCosts(g, env.sys, env.tab, CostConfig{ElemBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	c4, err := PrepareCosts(g, env.sys, env.tab, CostConfig{ElemBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	r8 := c8.TransferMs(1000, 0, 1)
	r4 := c4.TransferMs(1000, 0, 1)
	if math.Abs(r8-2*r4) > 1e-12 {
		t.Errorf("8-byte transfer %v should be 2x 4-byte %v", r8, r4)
	}
}

// classEnv is a four-processor system with distinct link rates and a
// lookup table with two sizes per kernel, so distinct data sizes
// interpolate to distinct rows and MeanTransfer averages unequal links.
func classEnv(t testing.TB) (*platform.System, *lut.Table) {
	t.Helper()
	b := platform.NewBuilder()
	cpu := b.AddProcessor(platform.CPU, "")
	gpu := b.AddProcessor(platform.GPU, "")
	fpga := b.AddProcessor(platform.FPGA, "")
	gpu2 := b.AddProcessor(platform.GPU, "")
	b.SetUniformRate(4)
	b.SetRate(cpu, gpu, 3).SetRate(gpu, fpga, 7).SetRate(gpu2, cpu, 1.5)
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10, platform.GPU: 2, platform.FPGA: 50}},
		{Kernel: "a", DataElems: 9000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 70, platform.GPU: 9.5, platform.FPGA: 333}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4, platform.GPU: 8, platform.FPGA: 1}},
		{Kernel: "b", DataElems: 9000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 31, platform.GPU: 50, platform.FPGA: 1.7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.MustBuild(), tab
}

// assertMatchesReference checks every oracle accessor against values the
// test computes per kernel straight from the lookup table and TransferMs,
// bit for bit: interning must not change a single returned float.
func assertMatchesReference(t testing.TB, c *Costs, tab *lut.Table) {
	t.Helper()
	bits := math.Float64bits
	g, sys := c.Graph(), c.System()
	np := sys.NumProcs()
	for id := 0; id < g.NumKernels(); id++ {
		k := dfg.KernelID(id)
		kn := g.Kernel(k)
		row := c.ExecRow(k)
		if len(row) != np {
			t.Fatalf("kernel %d: ExecRow has %d entries, want %d", id, len(row), np)
		}
		sum, best, bestMs := 0.0, platform.ProcID(0), math.Inf(1)
		for p := 0; p < np; p++ {
			pid := platform.ProcID(p)
			want, err := tab.Exec(kn.Name, kn.DataElems, sys.KindOf(pid))
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Exec(k, pid); bits(got) != bits(want) {
				t.Fatalf("kernel %d: Exec(proc %d) = %v, want %v", id, p, got, want)
			}
			if bits(row[p]) != bits(want) {
				t.Fatalf("kernel %d: ExecRow[%d] = %v, want %v", id, p, row[p], want)
			}
			sum += want
			if want < bestMs {
				best, bestMs = pid, want
			}
		}
		if p, ms := c.BestProc(k); p != best || bits(ms) != bits(bestMs) {
			t.Fatalf("kernel %d: BestProc = %d/%v, want %d/%v", id, p, ms, best, bestMs)
		}
		if got, want := c.MeanExec(k), sum/float64(np); bits(got) != bits(want) {
			t.Fatalf("kernel %d: MeanExec = %v, want %v", id, got, want)
		}
		xfer := 0.0
		if np > 1 {
			for i := 0; i < np; i++ {
				for j := 0; j < np; j++ {
					if i != j {
						xfer += c.TransferMs(kn.OutElems, platform.ProcID(i), platform.ProcID(j))
					}
				}
			}
			xfer /= float64(np * np)
		}
		if got := c.MeanTransfer(k); bits(got) != bits(xfer) {
			t.Fatalf("kernel %d: MeanTransfer = %v, want %v", id, got, xfer)
		}
	}
}

func TestCostClassesMatchReference(t *testing.T) {
	sys, tab := classEnv(t)

	t.Run("shared fields, one differing", func(t *testing.T) {
		b := dfg.NewBuilder()
		k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
		k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000, OutElems: 5_000_000})
		k2 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
		k3 := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 4000, OutElems: 7})
		k4 := b.AddKernel(dfg.Kernel{Name: "b", DataElems: 4000})
		k5 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 5000, OutElems: 1000})
		b.AddEdge(k0, k1).AddEdge(k1, k2).AddEdge(k2, k3).AddEdge(k3, k4).AddEdge(k4, k5)
		c, err := PrepareCosts(b.MustBuild(), sys, tab, CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, c, tab)
		if got := len(c.rows) / (c.np + rowStats); got != 5 {
			t.Errorf("%d classes, want 5", got)
		}
		if c.class[k0] != c.class[k2] || c.class[k0] == c.class[k1] || c.class[k3] == c.class[k4] || c.class[k0] == c.class[k5] {
			t.Errorf("class IDs %v: want k0 = k2, k0 ≠ k1, k3 ≠ k4, k0 ≠ k5", c.class)
		}
		if c.MeanTransfer(k1) <= c.MeanTransfer(k0) {
			t.Error("a larger output must cost more to move")
		}
	})

	t.Run("all kernels distinct", func(t *testing.T) {
		b := dfg.NewBuilder()
		const n = 64
		for i := 0; i < n; i++ {
			name := "a"
			if i%2 == 1 {
				name = "b"
			}
			id := b.AddKernel(dfg.Kernel{Name: name, DataElems: int64(1000 + 131*i)})
			if i > 0 {
				b.AddEdge(id-1, id)
			}
		}
		c, err := PrepareCosts(b.MustBuild(), sys, tab, CostConfig{Mode: TransferSum, ElemBytes: 8})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, c, tab)
		if got := len(c.rows) / (c.np + rowStats); got != n {
			t.Errorf("%d classes, want one per kernel (%d)", got, n)
		}
	})

	t.Run("paper suite", func(t *testing.T) {
		g := workload.MustSuite(workload.Type2, workload.DefaultSuiteSeed)[0]
		c, err := PrepareCosts(g, platform.PaperSystem(4), lut.Paper(), CostConfig{})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, c, lut.Paper())
	})
}

// TestPrepareCostsLowestIDError pins the uncovered-kernel error to the
// lowest-ID kernel and its first uncovered processor, as a per-kernel scan
// reports it, whatever order the classes' other members appear in.
func TestPrepareCostsLowestIDError(t *testing.T) {
	sys, tab := classEnv(t)
	b := dfg.NewBuilder()
	k0 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	k1 := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	k2 := b.AddKernel(dfg.Kernel{Name: "zeta", DataElems: 1000})
	k3 := b.AddKernel(dfg.Kernel{Name: "mystery", DataElems: 1000})
	k4 := b.AddKernel(dfg.Kernel{Name: "zeta", DataElems: 1000})
	b.AddEdge(k0, k3).AddEdge(k1, k2).AddEdge(k3, k4)
	_, err := PrepareCosts(b.MustBuild(), sys, tab, CostConfig{})
	const want = `sim: kernel 2 (zeta, 1000 elems) on proc 0: lut: unknown kernel "zeta"`
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %s", err, want)
	}
}

// TestPrepareCostsAllocsFixedClasses: with the class count fixed, cost prep
// allocates the same number of objects at every graph size — the only
// per-kernel storage is the one class-ID slice.
func TestPrepareCostsAllocsFixedClasses(t *testing.T) {
	sys, tab := classEnv(t)
	allocs := func(n int) float64 {
		b := dfg.NewBuilder()
		for i := 0; i < n; i++ {
			name := "a"
			if i%2 == 1 {
				name = "b"
			}
			b.AddKernel(dfg.Kernel{Name: name, DataElems: int64(1000 * (1 + i%3))})
		}
		g := b.MustBuild()
		return testing.AllocsPerRun(5, func() {
			if _, err := PrepareCosts(g, sys, tab, CostConfig{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(60), allocs(60_000)
	if large != small {
		t.Errorf("PrepareCosts allocs grow with n at 6 classes: %v at 60 kernels, %v at 60000", small, large)
	}
}
