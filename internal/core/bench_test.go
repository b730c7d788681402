package core

import (
	"math/rand"
	"testing"

	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchCosts(b *testing.B, typ workload.GraphType) *sim.Costs {
	b.Helper()
	g := workload.MustSuite(typ, workload.DefaultSuiteSeed)[9] // 157 kernels
	c, err := sim.PrepareCosts(g, platform.PaperSystem(4), lut.Paper(), sim.CostConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// scaleCosts prepares the α-sweep's cost oracle: n kernels drawn by
// workload.ScaleSeries on BuildScaleLayered's default layers, on 8
// processors (CPU, GPU, FPGA in turn) linked at 4 GB/s.
func scaleCosts(tb testing.TB, n int) *sim.Costs {
	tb.Helper()
	series, err := workload.ScaleSeries(n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := workload.BuildScaleLayered(series, workload.DefaultScaleLayeredConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	kinds := []platform.Kind{platform.CPU, platform.GPU, platform.FPGA}
	b := platform.NewBuilder()
	for i := 0; i < 8; i++ {
		b.AddProcessor(kinds[i%len(kinds)], "")
	}
	b.SetUniformRate(4)
	sys, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := sim.PrepareCosts(g, sys, lut.Paper(), sim.CostConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkRunAPT measures a full APT simulation of the largest suite
// graph — the end-to-end cost of the paper's contribution.
func BenchmarkRunAPT(b *testing.B) {
	c := benchCosts(b, workload.Type2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, New(4), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAPTR measures the future-work variant on the same workload.
func BenchmarkRunAPTR(b *testing.B) {
	c := benchCosts(b, workload.Type2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, NewR(4), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAPTSelectWide stresses the per-invocation Select cost on a wide
// dependency-free level (every kernel ready at once).
func BenchmarkAPTSelectWide(b *testing.B) {
	c := benchCosts(b, workload.Type1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, New(4), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepAPT10k is one closed α = 1 run of the α-sweep workload on
// the 10k-kernel scale graph: the layer where APT.Select prices every busy
// pmin's alternatives. The Runner is built and warmed by one run outside
// the timed loop, so allocs/op counts exactly what a warm run allocates.
func BenchmarkSweepAPT10k(b *testing.B) {
	c := scaleCosts(b, 10_000)
	r := sim.NewRunner()
	pol := New(1)
	if _, err := r.Run(c, pol, sim.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(c, pol, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
