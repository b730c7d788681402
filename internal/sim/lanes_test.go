package sim

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// fuzzDAG decodes an arbitrary byte string into a DAG over the tiny test
// table's kernel names: the first byte picks the vertex count (2..41), the
// second alternates names, every following byte pair an edge directed low
// ID -> high ID — always acyclic, often disconnected, which is exactly the
// shape the component partitioner and the lane reducer must agree on.
func fuzzDAG(data []byte) *dfg.Graph {
	if len(data) < 2 {
		return nil
	}
	n := int(data[0])%40 + 2
	b := dfg.NewBuilder()
	for i := 0; i < n; i++ {
		name := "a"
		if (int(data[1])+i)%3 == 0 {
			name = "b"
		}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
	}
	for i := 2; i+1 < len(data); i += 2 {
		u := dfg.KernelID(int(data[i]) % n)
		v := dfg.KernelID(int(data[i+1]) % n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// FuzzLanesOracle is the partition-vs-serial oracle: for arbitrary DAGs the
// lane-parallel engine must produce byte-identical serialized results to
// the serial engine for every lane count, the lane-parallel validator must
// accept every schedule the serial one accepts, and the interned cost
// oracle must match per-kernel lookups bit for bit.
func FuzzLanesOracle(f *testing.F) {
	f.Add([]byte{5, 0})
	f.Add([]byte{11, 1, 0, 1, 1, 2, 0, 2, 5, 9})
	f.Add([]byte{39, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 100})
	env := tinyF(f, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzDAG(data)
		if g == nil {
			return
		}
		costs, err := PrepareCosts(g, env.sys, env.tab, CostConfig{})
		if err != nil {
			return
		}
		assertMatchesReference(t, costs, env.tab)
		serial, err := Run(costs, &greedy{}, Options{Lanes: 1})
		if err != nil {
			return
		}
		var want bytes.Buffer
		if err := serial.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		for _, lanes := range []int{2, 4, -1} {
			res, err := Run(costs, &greedy{}, Options{Lanes: lanes})
			if err != nil {
				t.Fatalf("lanes=%d: run failed where serial succeeded: %v", lanes, err)
			}
			if err := res.ValidateLanes(g, env.sys, lanes); err != nil {
				t.Fatalf("lanes=%d: schedule rejected: %v", lanes, err)
			}
			var got bytes.Buffer
			if err := res.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("lanes=%d: result JSON differs from serial engine", lanes)
			}
		}
	})
}

// tinyF is tiny for fuzz targets (testing.F and testing.T share no common
// interface, so the setup is duplicated rather than abstracted).
func tinyF(f *testing.F, rate platform.GBps) tinyEnv {
	f.Helper()
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10, platform.GPU: 2, platform.FPGA: 50}},
		{Kernel: "b", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 4, platform.GPU: 8, platform.FPGA: 1}},
	})
	if err != nil {
		f.Fatal(err)
	}
	return tinyEnv{sys: platform.PaperSystem(rate), tab: tab}
}

func TestLaneChunksTile(t *testing.T) {
	for _, tc := range []struct{ n, lanes int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {5, 4}, {100, 7}, {10, 1}, {10, -1}, {10, 0},
	} {
		chunks := laneChunks(tc.n, tc.lanes)
		lo := 0
		for i, c := range chunks {
			if c.lane != i {
				t.Fatalf("n=%d lanes=%d: chunk %d stamped %d", tc.n, tc.lanes, i, c.lane)
			}
			if c.lo != lo {
				t.Fatalf("n=%d lanes=%d: chunk %d starts at %d, want %d", tc.n, tc.lanes, i, c.lo, lo)
			}
			if c.hi < c.lo {
				t.Fatalf("n=%d lanes=%d: chunk %d inverted", tc.n, tc.lanes, i)
			}
			if d := (c.hi - c.lo) - tc.n/len(chunks); d < 0 || d > 1 {
				t.Fatalf("n=%d lanes=%d: chunk %d length %d not within one of %d",
					tc.n, tc.lanes, i, c.hi-c.lo, tc.n/len(chunks))
			}
			lo = c.hi
		}
		if lo != tc.n {
			t.Fatalf("n=%d lanes=%d: chunks cover [0,%d), want [0,%d)", tc.n, tc.lanes, lo, tc.n)
		}
	}
}

func TestNormLanesConvention(t *testing.T) {
	if got := normLanes(0, 100); got != 1 {
		t.Errorf("normLanes(0) = %d, want 1 (serial default)", got)
	}
	if got := normLanes(1, 100); got != 1 {
		t.Errorf("normLanes(1) = %d, want 1", got)
	}
	if got := normLanes(6, 100); got != 6 {
		t.Errorf("normLanes(6) = %d, want 6", got)
	}
	if got := normLanes(-1, 100); got < 1 {
		t.Errorf("normLanes(-1) = %d, want >= 1 (one per CPU)", got)
	}
	if got := normLanes(8, 3); got != 3 {
		t.Errorf("normLanes(8, n=3) = %d, want clamp to 3", got)
	}
}

func TestParallelSortFloat64sMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 7, 100, 1001} {
		for _, lanes := range []int{1, 2, 3, 4, 8} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.NormFloat64() * 1e6
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			sorted, spare := parallelSortFloat64s(xs, nil, lanes)
			if len(sorted) != n {
				t.Fatalf("n=%d lanes=%d: sorted length %d", n, lanes, len(sorted))
			}
			for i := range want {
				if sorted[i] != want[i] {
					t.Fatalf("n=%d lanes=%d: sorted[%d] = %v, want %v", n, lanes, i, sorted[i], want[i])
				}
			}
			// The returned pair must be usable as (result, next scratch):
			// rotating them across calls keeps both buffers alive without
			// aliasing each other.
			if n > 0 && lanes > 1 && len(spare) > 0 && &sorted[0] == &spare[0] {
				t.Fatalf("n=%d lanes=%d: sorted and spare alias", n, lanes)
			}
		}
	}
}

func TestFirstLaneError(t *testing.T) {
	errA := &SizeErrorStub{"a"}
	errB := &SizeErrorStub{"b"}
	if err := firstLaneError([]laneError{{at: 3}, {at: 7}}); err != nil {
		t.Errorf("all-nil lanes returned %v", err)
	}
	got := firstLaneError([]laneError{
		{at: 9, err: errB},
		{at: 2, err: errA},
		{at: 5, err: errB},
	})
	if got != errA {
		t.Errorf("firstLaneError = %v, want lowest-stamp error %v", got, errA)
	}
}

// SizeErrorStub is a distinguishable error value for reducer tests.
type SizeErrorStub struct{ s string }

func (e *SizeErrorStub) Error() string { return e.s }

func TestParallelOverDisjointWrites(t *testing.T) {
	const n = 1000
	for _, lanes := range []int{1, 2, 4, 7, -1} {
		out := make([]int32, n)
		ParallelOver(n, lanes, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i]++
			}
		})
		for i, v := range out {
			if v != 1 {
				t.Fatalf("lanes=%d: index %d written %d times", lanes, i, v)
			}
		}
	}
}

// TestPlacementArenaBlocks exercises the slab allocator directly: blocks
// are zeroed, disjoint, and appending to one cannot clobber its neighbour.
func TestPlacementArenaBlocks(t *testing.T) {
	var a placementArena
	b1 := a.alloc(10)
	b2 := a.alloc(20)
	if len(b1) != 10 || len(b2) != 20 {
		t.Fatalf("block lengths %d, %d", len(b1), len(b2))
	}
	for i := range b1 {
		if b1[i] != (Placement{}) {
			t.Fatalf("b1[%d] not zeroed: %+v", i, b1[i])
		}
	}
	b1[9].Kernel = 99
	if b2[0].Kernel != 0 {
		t.Fatal("blocks overlap: write to b1 visible in b2")
	}
	// Append past a block's end must copy out, not run into the slab.
	grown := append(b1, Placement{Kernel: 7})
	if b2[0].Kernel != 0 {
		t.Fatalf("append to b1 clobbered b2: %+v", b2[0])
	}
	if grown[10].Kernel != 7 {
		t.Fatal("append lost the new element")
	}
	// A request larger than the remaining slab still yields a usable block.
	big := a.alloc(arenaMaxSlab + 1)
	if len(big) != arenaMaxSlab+1 {
		t.Fatalf("big block length %d", len(big))
	}
}

// TestPlacementArenaAdaptiveSizing pins the growth contract: a cold arena's
// first slab is exactly the requested block (one-shot runs pay no slab tax),
// refills double the previous capacity, and growth caps at arenaMaxSlab.
func TestPlacementArenaAdaptiveSizing(t *testing.T) {
	var a placementArena
	a.alloc(100)
	if c := cap(a.slab); c != 100 {
		t.Fatalf("cold slab cap = %d, want exactly 100", c)
	}
	a.alloc(150) // exceeds the 100-slab: refill doubles to 200
	if c := cap(a.slab); c != 200 {
		t.Fatalf("second slab cap = %d, want 200", c)
	}
	var b placementArena
	for i := 0; i < 40; i++ {
		b.alloc(arenaMaxSlab / 4)
	}
	if c := cap(b.slab); c > arenaMaxSlab {
		t.Fatalf("slab cap %d exceeds arenaMaxSlab %d", c, arenaMaxSlab)
	}
	// Private-block path: a half-slab-or-larger request must not disturb the
	// shared slab (it would strand the tail on every refill).
	before := cap(b.slab)
	blk := b.alloc(arenaMaxSlab / 2)
	if len(blk) != arenaMaxSlab/2 {
		t.Fatalf("private block length %d", len(blk))
	}
	if cap(b.slab) != before {
		t.Fatal("large block consumed the shared slab")
	}
}

// TestRunnerWarmRunAllocsSlab pins the slab-backed placement path: a warm
// runner re-running the same workload must not allocate per kernel — the
// arena hands out sub-slices of one slab, so steady-state allocations stay
// O(1) regardless of graph size.
func TestRunnerWarmRunAllocsSlab(t *testing.T) {
	env := tiny(t, 4)
	b := dfg.NewBuilder()
	const n = 512
	for i := 0; i < n; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		b.AddKernel(dfg.Kernel{Name: name, DataElems: 1000})
	}
	for i := 1; i < n; i++ {
		b.AddEdge(dfg.KernelID(i/2), dfg.KernelID(i))
	}
	c := mustCosts(t, b.MustBuild(), env)
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
	// The warm path allocates a handful of fixed-size headers (result
	// struct, stats slices); the bound is intentionally far below one
	// allocation per kernel (n = 512).
	if allocs > 32 {
		t.Errorf("warm run allocates %.0f objects for %d kernels; placement slab regressed", allocs, n)
	}
}
