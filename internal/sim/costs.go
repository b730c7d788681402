// Package sim is the discrete-event simulator of the heterogeneous system:
// it executes a dataflow graph on a platform under a scheduling policy and
// reports the metrics the thesis evaluates (makespan, per-processor
// compute/transfer/idle time, and λ scheduling-delay statistics).
//
// The simulator follows the paper's model (§2.5, §3.2):
//
//   - each kernel's execution time on each processor comes from a lookup
//     table of measured times;
//   - moving a predecessor's output between distinct processors costs
//     size·bytes/rate over the link;
//   - a processor is occupied by a kernel for its incoming transfer plus its
//     execution (processors "currently executing kernels or data transfers"
//     are unavailable);
//   - the scheduling policy is invoked at time zero and after every kernel
//     completion, and may assign any number of kernels per invocation.
package sim

import (
	"fmt"
	"math"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// TransferMode selects how incoming transfers from multiple predecessors
// combine.
type TransferMode int

const (
	// TransferMax models fully concurrent links (the standard list-scheduling
	// assumption): the kernel waits for the slowest incoming transfer.
	TransferMax TransferMode = iota
	// TransferSum models a single shared ingress: transfers serialize.
	TransferSum
)

// String names the mode.
func (m TransferMode) String() string {
	switch m {
	case TransferMax:
		return "max"
	case TransferSum:
		return "sum"
	default:
		return fmt.Sprintf("TransferMode(%d)", int(m))
	}
}

// CostConfig parameterises the cost model.
type CostConfig struct {
	// ElemBytes is the size of one data element in bytes. The thesis never
	// states it; 4 (single-precision) is the documented default.
	ElemBytes float64
	// Mode selects multi-predecessor transfer combination; default TransferMax.
	Mode TransferMode
}

// DefaultCostConfig returns the documented defaults (4 bytes/element,
// concurrent-link transfers).
func DefaultCostConfig() CostConfig { return CostConfig{ElemBytes: 4, Mode: TransferMax} }

// Costs binds a graph, a platform and a lookup table into a fast, fully
// validated cost oracle. Every policy and the engine itself consult the
// same Costs, so all of them price work identically (the paper's policies
// all share one lookup table).
//
// # Estimates versus actuals
//
// A run carries up to two Costs with distinct roles. The Costs passed to
// Run is the estimate oracle: it is handed to Policy.Prepare and exposed
// through State.Costs/BusyUntil, so it is all a policy ever sees — its
// model of the platform. Options.ActualCosts, when set, is the actual
// oracle: the engine times execution and transfers from it (and takes λ's
// best-exec baseline from it), so it is what the platform really does.
// When ActualCosts is nil the two coincide and estimates are exact — the
// thesis's model. The perturb package builds actual tables from estimate
// tables (noise, bias, drift), and Options.Degrade stretches the actual
// durations further over time; neither ever leaks into the estimate side,
// which is what makes robustness runs honest: policies decide on beliefs,
// reality charges the truth.
//
// # Cost classes
//
// Every per-kernel cost is a pure function of the kernel fields the cost
// model reads — Name and DataElems for execution, OutElems for transfers —
// so PrepareCosts interns kernels into classes keyed by that triple and
// stores each distinct row once. A 1M-kernel scale graph has 25 classes.
type Costs struct {
	g   *dfg.Graph
	sys *platform.System
	cfg CostConfig
	np  int
	// class[k] is kernel k's cost class. Classes are numbered in order of
	// their lowest kernel ID.
	class []int32
	// rows holds one row per class, flattened with stride np+rowStats:
	// the class's execution time on each processor, then its reductions
	// at offsets rowMean, rowMeanXfer and rowBest past the times. The best
	// ProcID is stored as a float64 (exact for any processor count) so the
	// whole class table is a single allocation.
	rows []float64
}

// Offsets of a class row's reductions past its np execution times.
const (
	rowMean     = iota // mean exec across procs, for HEFT ranks
	rowMeanXfer        // mean output transfer over ordered proc pairs
	rowBest            // processor with the minimum execution time
	rowStats           // reductions per row
)

// classKey is every kernel field the cost model reads.
type classKey struct {
	name                string
	dataElems, outElems int64
}

// PrepareCosts interns the graph's kernels into cost classes, precomputes
// each class's execution-time row, and validates that the table covers
// every kernel in the graph on every processor kind in the system. The
// table is consulted once per class×processor; on a miss the error names
// the lowest-ID uncovered kernel, as a per-kernel scan would.
func PrepareCosts(g *dfg.Graph, sys *platform.System, tab *lut.Table, cfg CostConfig) (*Costs, error) {
	if g == nil || sys == nil || tab == nil {
		return nil, fmt.Errorf("sim: PrepareCosts requires graph, system and table")
	}
	if cfg.ElemBytes == 0 {
		cfg.ElemBytes = DefaultCostConfig().ElemBytes
	}
	if cfg.ElemBytes < 0 {
		return nil, fmt.Errorf("sim: negative ElemBytes %v", cfg.ElemBytes)
	}
	np := sys.NumProcs()
	kernels := g.Kernels()
	c := &Costs{
		g:     g,
		sys:   sys,
		cfg:   cfg,
		np:    np,
		class: make([]int32, len(kernels)),
	}
	// Pass 1: intern, numbering classes in order of first appearance. The
	// hint holds a catalog-priced graph's classes (18–25 at any size)
	// without regrowing the map.
	ids := make(map[classKey]int32, 32)
	for id := range kernels {
		k := &kernels[id]
		key := classKey{name: k.Name, dataElems: k.DataElems, outElems: k.OutElems}
		cls, ok := ids[key]
		if !ok {
			cls = int32(len(ids))
			ids[key] = cls
		}
		c.class[id] = cls
	}
	// Pass 2: one lookup per class×proc at each class's first kernel, in
	// ascending ID order, so the first failure is at the lowest uncovered
	// kernel ID.
	stride := np + rowStats
	c.rows = make([]float64, len(ids)*stride)
	next := int32(0)
	for id, cls := range c.class {
		if cls != next {
			continue // a later member of an already-filled class
		}
		next++
		k := &kernels[id]
		row := c.rows[int(cls)*stride : int(cls+1)*stride]
		sum := 0.0
		best := platform.ProcID(0)
		bestMs := math.Inf(1)
		for p := range np {
			ms, err := tab.Exec(k.Name, k.DataElems, sys.KindOf(platform.ProcID(p)))
			if err != nil {
				return nil, fmt.Errorf("sim: kernel %d (%s, %d elems) on proc %d: %w",
					id, k.Name, k.DataElems, p, err)
			}
			row[p] = ms
			sum += ms
			if ms < bestMs {
				bestMs = ms
				best = platform.ProcID(p)
			}
		}
		row[np+rowMean] = sum / float64(np)
		row[np+rowMeanXfer] = c.meanTransferElems(k.OutElems)
		row[np+rowBest] = float64(best)
	}
	return c, nil
}

// Graph returns the bound graph.
func (c *Costs) Graph() *dfg.Graph { return c.g }

// System returns the bound platform.
func (c *Costs) System() *platform.System { return c.sys }

// Config returns the cost configuration in effect.
func (c *Costs) Config() CostConfig { return c.cfg }

// Exec returns the execution time in ms of kernel k on processor p.
//
//apt:hotpath
func (c *Costs) Exec(k dfg.KernelID, p platform.ProcID) float64 {
	return c.rows[c.rowStart(k)+int(p)]
}

// rowStart is the offset of kernel k's class row in rows.
func (c *Costs) rowStart(k dfg.KernelID) int { return int(c.class[k]) * (c.np + rowStats) }

// ExecRow returns kernel k's execution times across all processors,
// indexed by ProcID. The slice aliases the cost table and is shared by
// every kernel of k's class — do not modify.
func (c *Costs) ExecRow(k dfg.KernelID) []float64 {
	row := c.rowStart(k)
	return c.rows[row : row+c.np : row+c.np]
}

// MeanExec returns the mean execution time of kernel k across all
// processors (the w̄ᵢ of HEFT's upward rank).
func (c *Costs) MeanExec(k dfg.KernelID) float64 { return c.rows[c.rowStart(k)+c.np+rowMean] }

// BestProc returns the processor with the minimum execution time for k
// (the paper's pmin) and that minimum time. Ties break to the lower ID.
//
//apt:hotpath
func (c *Costs) BestProc(k dfg.KernelID) (platform.ProcID, float64) {
	row := c.rowStart(k)
	p := platform.ProcID(c.rows[row+c.np+rowBest])
	return p, c.rows[row+int(p)]
}

// TransferMs returns the time to move elems elements across the directed
// link from -> to. Same-processor transfers are free; a zero-rate link
// between distinct processors is unusable and returns +Inf-like large cost
// — it is reported as an error at engine level, but policies pricing such a
// link see the huge cost and avoid it.
func (c *Costs) TransferMs(elems int64, from, to platform.ProcID) float64 {
	if from == to {
		return 0
	}
	rate := c.sys.Rate(from, to)
	if rate <= 0 {
		return unusableLinkMs
	}
	bytes := float64(elems) * c.cfg.ElemBytes
	return bytes / rate.BytesPerMs()
}

// unusableLinkMs prices a missing link. One year in milliseconds: large
// enough that any schedule using it loses, finite so arithmetic stays sane.
const unusableLinkMs = 365 * 24 * 3600 * 1000.0

// TransferIn returns the incoming-transfer time kernel k would pay if
// executed on processor p, given placement: a function reporting the
// processor of each finished predecessor. Predecessors on p contribute
// zero. Combination follows the configured TransferMode.
func (c *Costs) TransferIn(k dfg.KernelID, p platform.ProcID, placement func(dfg.KernelID) platform.ProcID) float64 {
	var total, max float64
	for _, pred := range c.g.Preds(k) {
		from := placement(pred)
		ms := c.TransferMs(c.g.Kernel(pred).OutElems, from, p)
		total += ms
		if ms > max {
			max = ms
		}
	}
	if c.cfg.Mode == TransferSum {
		return total
	}
	return max
}

// MeanTransfer returns the average transfer cost of edge u->v across all
// ordered processor pairs (used by HEFT/PEFT mean communication costs c̄ᵢⱼ;
// pairs on the same processor contribute zero, matching the standard
// formulation of averaging over all processor pairs).
func (c *Costs) MeanTransfer(u dfg.KernelID) float64 {
	return c.rows[c.rowStart(u)+c.np+rowMeanXfer]
}

// meanTransferElems is MeanTransfer for an output of elems elements.
func (c *Costs) meanTransferElems(elems int64) float64 {
	np := c.np
	if np <= 1 {
		return 0
	}
	var sum float64
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if i == j {
				continue
			}
			sum += c.TransferMs(elems, platform.ProcID(i), platform.ProcID(j))
		}
	}
	return sum / float64(np*np)
}
