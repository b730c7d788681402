// Package experiments regenerates every table and figure of the thesis's
// evaluation chapter (Ch. 4 and the appendices). Each paper artifact has a
// driver that returns a report.Table, report.Figure or text block; the
// cmd/experiments binary and the repository's benchmarks call the same
// drivers.
//
// A Runner owns the workload suites and memoises individual simulation
// runs, so artifacts that share underlying experiments (most of them do)
// pay for each simulation once. Cache fills run in parallel across all
// available CPUs; every simulation is deterministic, so parallelism never
// changes results.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PolicySpec names one policy configuration. Alpha only matters for the
// APT family.
type PolicySpec struct {
	Name  string // "APT", "APT-R", "MET", "SPN", "SS", "AG", "HEFT", "PEFT"
	Alpha float64
}

// Label renders the spec for table headers: plain name, or "APT(α=4)" when
// disambiguation across α values is needed.
func (ps PolicySpec) Label() string { return ps.Name }

// Config parameterises a Runner. Zero values select the paper settings.
type Config struct {
	// Seed drives the workload suites (default workload.DefaultSuiteSeed).
	Seed int64
	// METSeed fixes MET's random visiting order (default 1).
	METSeed int64
	// SchedOverheadMs is passed to the engine (default 0, as in the paper's
	// model where the per-decision cost is folded into λ via waiting).
	SchedOverheadMs float64
	// ElemBytes sets the cost model's bytes per element (default 4).
	ElemBytes float64
	// TransferMode sets multi-predecessor transfer combination.
	TransferMode sim.TransferMode
}

// Alphas are the flexibility factors the paper sweeps (Figures 7, 9, 11,
// 12 and Table 13).
var Alphas = []float64{1.5, 2, 4, 8, 16}

// Rates are the PCIe bandwidths the paper sweeps: x8 (4 GB/s) and
// x16 (8 GB/s).
var Rates = []platform.GBps{4, 8}

// AllPolicies lists every policy column of the paper's Tables 8–12, in the
// paper's column order. APT's α varies per table and is set by the caller.
var AllPolicies = []string{"APT", "MET", "SPN", "SS", "AG", "HEFT", "PEFT"}

// DynamicPolicies are the dynamic baselines eligible to be the
// "second-best dynamic policy" of Table 13.
var DynamicPolicies = []string{"MET", "SPN", "SS", "AG"}

// Outcome is what one simulation contributes to the paper's artifacts.
type Outcome struct {
	Policy        string
	MakespanMs    float64
	LambdaTotalMs float64
	LambdaAvgMs   float64
	LambdaStdMs   float64
	// Alt carries APT's allocation statistics (Tables 15/16); zero-valued
	// for other policies.
	Alt core.AltStats
}

type runKey struct {
	typ   workload.GraphType
	graph int
	rate  platform.GBps
	pol   string
	alpha float64
}

// Runner memoises simulation runs over the paper's workload suites.
type Runner struct {
	cfg Config

	mu     sync.Mutex
	suites map[workload.GraphType][]*dfg.Graph
	cache  map[runKey]*Outcome

	// robustCells memoises the robustness noise sweep (robustness.go):
	// ext-robustness and ext-robust-p99 render different views of the same
	// hundreds of simulations, so the sweep runs once per Runner.
	robustMu    sync.Mutex
	robustCells map[string]map[float64]robustCell
}

// NewRunner returns a Runner with the given configuration.
func NewRunner(cfg Config) *Runner {
	if cfg.Seed == 0 {
		cfg.Seed = workload.DefaultSuiteSeed
	}
	if cfg.METSeed == 0 {
		cfg.METSeed = 1
	}
	return &Runner{
		cfg:    cfg,
		suites: map[workload.GraphType][]*dfg.Graph{},
		cache:  map[runKey]*Outcome{},
	}
}

// Graphs returns (generating on first use) the ten-experiment suite for a
// graph type.
func (r *Runner) Graphs(typ workload.GraphType) []*dfg.Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.suites[typ]; ok {
		return g
	}
	g := workload.MustSuite(typ, r.cfg.Seed)
	r.suites[typ] = g
	return g
}

// newPolicy constructs a fresh policy instance for a spec.
func (r *Runner) newPolicy(spec PolicySpec) (sim.Policy, error) {
	switch spec.Name {
	case "APT":
		return core.New(spec.Alpha), nil
	case "APT-R":
		return core.NewR(spec.Alpha), nil
	case "MET":
		return policy.NewMET(r.cfg.METSeed), nil
	case "SPN":
		return policy.NewSPN(), nil
	case "SS":
		return policy.NewSS(), nil
	case "AG":
		return policy.NewAG(), nil
	case "HEFT":
		return policy.NewHEFT(), nil
	case "PEFT":
		return policy.NewPEFT(), nil
	case "OLB":
		return policy.NewOLB(), nil
	case "AR":
		return policy.NewAR(r.cfg.METSeed), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", spec.Name)
	}
}

// Suite runs one policy over all ten experiments of a suite and returns
// the outcomes in experiment order. Uncached cells are fanned across the
// engine's worker pool (sim.RunPool), which bounds concurrency at
// GOMAXPROCS and reuses per-worker engine state; the whole per-cell
// pipeline (cost preparation included) runs inside the pool, and results
// are deterministic regardless of parallelism.
func (r *Runner) Suite(typ workload.GraphType, rate platform.GBps, spec PolicySpec) ([]*Outcome, error) {
	graphs := r.Graphs(typ)
	out := make([]*Outcome, len(graphs))
	var missing []int
	r.mu.Lock()
	for i := range graphs {
		if o, ok := r.cache[runKey{typ, i, rate, spec.Name, spec.Alpha}]; ok {
			out[i] = o
		} else {
			missing = append(missing, i)
		}
	}
	r.mu.Unlock()
	if len(missing) == 0 {
		return out, nil
	}

	errs := sim.RunPool(context.Background(), len(missing), 0, func(j int, w *sim.Worker) error {
		i := missing[j]
		sys := platform.PaperSystem(rate)
		costs, err := sim.PrepareCosts(graphs[i], sys, lut.Paper(), sim.CostConfig{
			ElemBytes: r.cfg.ElemBytes,
			Mode:      r.cfg.TransferMode,
		})
		if err != nil {
			return err
		}
		pol, err := r.newPolicy(spec)
		if err != nil {
			return err
		}
		res, err := w.Runner().Run(costs, pol, sim.Options{SchedOverheadMs: r.cfg.SchedOverheadMs})
		if err != nil {
			return err
		}
		if err := res.Validate(graphs[i], sys); err != nil {
			return fmt.Errorf("experiments: %s on %v graph %d produced an invalid schedule: %w",
				spec.Name, typ, i+1, err)
		}
		o := &Outcome{
			Policy:        spec.Name,
			MakespanMs:    res.MakespanMs,
			LambdaTotalMs: res.Lambda.TotalMs,
			LambdaAvgMs:   res.Lambda.AvgMs,
			LambdaStdMs:   res.Lambda.StdMs,
		}
		if apt, ok := pol.(*core.APT); ok {
			o.Alt = apt.Stats()
		}
		r.mu.Lock()
		r.cache[runKey{typ, i, rate, spec.Name, spec.Alpha}] = o
		r.mu.Unlock()
		out[i] = o
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// avgMakespan averages makespans over a suite.
func avgMakespan(outs []*Outcome) float64 {
	var sum float64
	for _, o := range outs {
		sum += o.MakespanMs
	}
	return sum / float64(len(outs))
}

// avgLambda averages total λ delays over a suite.
func avgLambda(outs []*Outcome) float64 {
	var sum float64
	for _, o := range outs {
		sum += o.LambdaTotalMs
	}
	return sum / float64(len(outs))
}
