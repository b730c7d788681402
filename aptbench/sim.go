package main

import (
	"context"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/apt"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	sweepKernels = 10_000
	heftKernels  = 200_000
	machineProcs = 8
	machineGBps  = 4.0
	sweepGapMs   = 250.0
	// Set-up is repeated at least setupMinReps times and until
	// setupMinTotal has passed; setup_s is the median repetition.
	setupMinReps  = 3
	setupMinTotal = 500 * time.Millisecond
)

// setupDone reports whether set-up has been repeated often enough.
func setupDone(reps []float64) bool {
	return len(reps) >= setupMinReps && sum(reps) >= setupMinTotal.Seconds()
}

var sweepAlphas = []float64{1, 1.5, 4, 16}

// simCase is one simulation of a sim workload: a policy, through the public
// API and as the internal instance the layer path drives, with or without
// Poisson-paced arrivals.
type simCase struct {
	name     string
	public   apt.Policy
	internal func() sim.Policy
	paced    bool
}

func sweepCases() []simCase {
	var cs []simCase
	for _, a := range sweepAlphas {
		for _, paced := range []bool{false, true} {
			name := fmt.Sprintf("APT(%g)/closed", a)
			if paced {
				name = fmt.Sprintf("APT(%g)/poisson%g", a, sweepGapMs)
			}
			cs = append(cs, simCase{name: name, public: apt.APT(a), internal: func() sim.Policy { return core.New(a) }, paced: paced})
		}
	}
	return cs
}

func heftCases() []simCase {
	return []simCase{{name: "HEFT/closed", public: apt.HEFT(), internal: func() sim.Policy { return policy.NewHEFT() }}}
}

// simInputs holds one generated graph twice: through the public API, which
// the end-to-end operation calls, and built from the internal packages for
// the layer-by-layer path. Both come from the same seed and are identical.
type simInputs struct {
	n        int
	w        *apt.Workload
	m        *apt.Machine
	arrivals []float64
	g        *dfg.Graph
	sys      *platform.System
	buildMs  float64
}

// setupSim generates the inputs repeatedly (see setupDone) and returns the
// median set-up time in seconds.
func setupSim(n int, seed int64, paced bool) (*simInputs, float64, error) {
	in := &simInputs{n: n}
	var reps []float64
	for !setupDone(reps) {
		t0 := time.Now()
		w, err := apt.GenerateLayeredWorkload(n, 0, 0, seed)
		if err != nil {
			return nil, 0, err
		}
		m, err := apt.ScaleMachine(machineProcs, machineGBps)
		if err != nil {
			return nil, 0, err
		}
		var arr []float64
		if paced {
			if arr, err = apt.PoissonArrivals(w, sweepGapMs, seed); err != nil {
				return nil, 0, err
			}
		}
		reps = append(reps, time.Since(t0).Seconds())
		in.w, in.m, in.arrivals = w, m, arr
	}

	t0 := time.Now()
	series, err := workload.ScaleSeries(n, seed)
	if err != nil {
		return nil, 0, err
	}
	g, err := workload.BuildScaleLayered(series, workload.DefaultScaleLayeredConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, 0, err
	}
	in.buildMs = since(t0)
	in.g = g
	if in.sys, err = scaleSystem(); err != nil {
		return nil, 0, err
	}
	if g.NumKernels() != in.w.NumKernels() || g.NumEdges() != in.w.NumDeps() {
		return nil, 0, fmt.Errorf("internal graph (%d kernels, %d edges) differs from the public one (%d, %d)",
			g.NumKernels(), g.NumEdges(), in.w.NumKernels(), in.w.NumDeps())
	}
	return in, median(reps), nil
}

// scaleSystem is apt.ScaleMachine(machineProcs, machineGBps) built from the
// platform package.
func scaleSystem() (*platform.System, error) {
	kinds := []platform.Kind{platform.CPU, platform.GPU, platform.FPGA}
	b := platform.NewBuilder()
	for i := 0; i < machineProcs; i++ {
		b.AddProcessor(kinds[i%len(kinds)], "")
	}
	b.SetUniformRate(platform.GBps(machineGBps))
	return b.Build()
}

func (in *simInputs) publicOptions(c simCase) *apt.Options {
	if !c.paced {
		return nil
	}
	return &apt.Options{Arrivals: in.arrivals}
}

func (in *simInputs) simOptions(c simCase) sim.Options {
	if !c.paced {
		return sim.Options{}
	}
	return sim.Options{ArrivalTimes: in.arrivals}
}

// prepareCosts is the cost-prep layer with apt.Run's default cost model. It
// returns the duration and the bytes allocated.
func (in *simInputs) prepareCosts(tr *tracer, parent int, req int64) (*sim.Costs, float64, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := tr.start("sim.PrepareCosts", parent, req)
	costs, err := sim.PrepareCosts(in.g, in.sys, lut.Paper(), sim.CostConfig{Mode: sim.TransferMax})
	d := t.end()
	runtime.ReadMemStats(&m1)
	return costs, ms(d), m1.TotalAlloc - m0.TotalAlloc, err
}

// timedPolicy forwards to a policy and times its Prepare calls and, when
// timeSelect is set, its Select calls together with the ready-list length
// each Select is offered.
type timedPolicy struct {
	inner       sim.Policy
	timeSelect  bool
	prepare     time.Duration
	sel         time.Duration
	selectCalls int
	readyLen    int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Prepare(c *sim.Costs) error {
	t0 := time.Now()
	err := p.inner.Prepare(c)
	p.prepare += time.Since(t0)
	return err
}

func (p *timedPolicy) Select(st *sim.State) []sim.Assignment {
	if !p.timeSelect {
		return p.inner.Select(st)
	}
	p.readyLen += st.ReadyLen()
	p.selectCalls++
	t0 := time.Now()
	out := p.inner.Select(st)
	p.sel += time.Since(t0)
	return out
}

// layerRun is one simulation driven layer by layer.
type layerRun struct {
	costsMs, prepareMs, loopMs, validateMs float64
	costsBytes                             uint64
	selectMs                               float64
	selectCalls, readyLen                  int
	assigned, alt                          int
	digest                                 string
}

// engineMs is the time after cost prep: Prepare, the event loop and
// validation.
func (r layerRun) engineMs() float64 { return r.prepareMs + r.loopMs + r.validateMs }

// runLayers simulates one case through the layers apt.Run composes: cost
// prep (skipped when costs is given), policy Prepare, runner.Run with the
// prepared policy, and validation.
func runLayers(in *simInputs, costs *sim.Costs, runner *sim.Runner, c simCase, timeSelect bool, tr *tracer, parent int, req int64) (layerRun, error) {
	var r layerRun
	if costs == nil {
		var err error
		if costs, r.costsMs, r.costsBytes, err = in.prepareCosts(tr, parent, req); err != nil {
			return r, err
		}
	}
	inner := c.internal()
	pol := &timedPolicy{inner: inner, timeSelect: timeSelect}

	t := tr.start("policy.Prepare", parent, req)
	err := pol.Prepare(costs)
	r.prepareMs = ms(t.end())
	if err != nil {
		return r, err
	}

	// Run calls Prepare again; a prepared policy makes that call cheap, and
	// its time is taken out of the loop's.
	pol.prepare = 0
	t = tr.start("sim.Runner.Run", parent, req)
	res, err := runner.Run(costs, pol, in.simOptions(c))
	r.loopMs = ms(t.end() - pol.prepare)
	if err != nil {
		return r, err
	}
	r.selectMs, r.selectCalls, r.readyLen = ms(pol.sel), pol.selectCalls, pol.readyLen

	t = tr.start("sim.Result.ValidateLanes", parent, req)
	err = res.ValidateLanes(in.g, in.sys, 0)
	r.validateMs = ms(t.end())
	if err != nil {
		return r, fmt.Errorf("%s: invalid schedule: %w", c.name, err)
	}
	if a, ok := inner.(*core.APT); ok {
		st := a.Stats()
		r.assigned, r.alt = st.Assignments, st.AltAssignments
	} else {
		r.assigned = len(res.Placements)
	}
	r.digest = simDigest(res, r.alt)
	return r, nil
}

// referenceDigests runs every case through the layer path, one case per
// CPU at a time, untimed.
func referenceDigests(in *simInputs, cases []simCase) ([]string, error) {
	costs, _, _, err := in.prepareCosts(nil, 0, 0)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(cases))
	errs := make([]error, len(cases))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := runLayers(in, costs, sim.NewRunner(), c, false, nil, 0, 0)
			out[i], errs[i] = r.digest, err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The digest covers the makespan, the total λ delay, the alternative
// assignment count and an FNV-1a hash of every kernel's (processor, exec
// start, finish) in kernel order.
func digest(makespan, lambda float64, alt int, h uint64) string {
	return fmt.Sprintf("makespan=%s lambda=%s alt=%d sched=%016x",
		strconv.FormatFloat(makespan, 'g', -1, 64), strconv.FormatFloat(lambda, 'g', -1, 64), alt, h)
}

func hashPlacement(h io.Writer, buf *[20]byte, proc int32, start, finish float64) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(proc))
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(start))
	binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(finish))
	h.Write(buf[:])
}

func simDigest(r *sim.Result, alt int) string {
	h := fnv.New64a()
	var buf [20]byte
	for _, p := range r.Placements {
		hashPlacement(h, &buf, int32(p.Proc), p.ExecStart, p.Finish)
	}
	return digest(r.MakespanMs, r.Lambda.TotalMs, alt, h.Sum64())
}

func aptDigest(r *apt.Result) string {
	h := fnv.New64a()
	var buf [20]byte
	for _, k := range r.Kernels {
		hashPlacement(h, &buf, k.Proc, k.ExecStartMs, k.FinishMs)
	}
	return digest(r.MakespanMs, r.LambdaTotalMs, r.Alt.AltAssignments, h.Sum64())
}

// storedDigestsJSON holds, per workload and case, the digests of
// defaultSeed.
//
//go:embed digests.json
var storedDigestsJSON []byte

func storedDigests() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(storedDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// writeDigests prints the reference digests of both sim workloads for seed
// in digests.json's format.
func writeDigests(w io.Writer, seed int64) error {
	all := map[string]map[string]string{}
	for _, wl := range []struct {
		name  string
		n     int
		cases []simCase
	}{{"sim-apt-sweep", sweepKernels, sweepCases()}, {"sim-heft-200k", heftKernels, heftCases()}} {
		in, _, err := setupSim(wl.n, seed, true)
		if err != nil {
			return err
		}
		ds, err := referenceDigests(in, wl.cases)
		if err != nil {
			return err
		}
		all[wl.name] = map[string]string{}
		for i, c := range wl.cases {
			all[wl.name][c.name] = ds[i]
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func runAPTSweep(o options, tr *tracer) (*outcome, error) {
	return runSim(o, tr, sweepKernels, sweepCases(), true)
}

func runHEFTScale(o options, tr *tracer) (*outcome, error) {
	return runSim(o, tr, heftKernels, heftCases(), false)
}

// runSim measures one sim workload. Each operation is one apt.RunBatch over
// all cases (batch) or one cold apt.Run of the single case. The traced run
// follows every operation with the layer path, once plain and once with
// Select timed and spans recorded.
func runSim(o options, tr *tracer, n int, cases []simCase, batch bool) (*outcome, error) {
	paced := false
	for _, c := range cases {
		paced = paced || c.paced
	}
	in, setupS, err := setupSim(n, o.seed, paced)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	e2e := func(parent int, req int64) ([]*apt.Result, error) {
		if batch {
			cfgs := make([]apt.RunConfig, len(cases))
			for i, c := range cases {
				cfgs[i] = apt.RunConfig{Workload: in.w, Machine: in.m, Policy: c.public, Options: in.publicOptions(c)}
			}
			t := tr.start("apt.RunBatch", parent, req)
			defer t.end()
			return apt.RunBatch(context.Background(), cfgs, &apt.BatchOptions{Workers: workers})
		}
		t := tr.start("apt.Run", parent, req)
		defer t.end()
		res, err := apt.Run(in.w, in.m, cases[0].public, in.publicOptions(cases[0]))
		return []*apt.Result{res}, err
	}
	digests := func(rs []*apt.Result) []string {
		ds := make([]string, len(rs))
		for i, r := range rs {
			ds[i] = aptDigest(r)
		}
		return ds
	}

	out := &outcome{metrics: map[string]float64{}}
	// Warm-up: one untimed operation, checked like the rest.
	warm, err := e2e(0, 0)
	if err != nil {
		return nil, err
	}
	opDigests := [][]string{digests(warm)}
	var walls []float64
	var allocBytes uint64
	var traced []tracedSimOp
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for op := int64(1); op == 1 || time.Now().Before(deadline); op++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		root := tr.start("aptbench.op", 0, op)
		t0 := time.Now()
		res, err := e2e(root.id, op)
		wall := since(t0)
		runtime.ReadMemStats(&m1)
		out.attempted.Add(int64(len(cases)))
		if err != nil {
			out.fail("op %d: %v", op, err)
			root.end()
			continue
		}
		walls = append(walls, wall)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		opDigests = append(opDigests, digests(res))
		if tr != nil {
			top, err := tracedOp(in, cases, batch, tr, root.id, op)
			if err != nil {
				return nil, err
			}
			top.wallMs = wall
			traced = append(traced, top)
		}
		root.end()
	}

	if len(walls) == 0 {
		return nil, fmt.Errorf("every operation failed")
	}

	// Reference: the layer path on the same inputs, and for the default
	// seed the stored digests.
	var ref []string
	if len(traced) > 0 {
		ref = traced[0].digests
	} else if ref, err = referenceDigests(in, cases); err != nil {
		return nil, err
	}
	if o.seed == defaultSeed {
		stored, err := storedDigests()
		if err != nil {
			return nil, err
		}
		wl := o.workload
		for i, c := range cases {
			if want := stored[wl][c.name]; ref[i] != want {
				out.fail("%s: layer-path digest %q differs from stored digest %q", c.name, ref[i], want)
			}
		}
	}
	for op, ds := range opDigests {
		for i, d := range ds {
			if d != ref[i] {
				out.fail("op %d, %s: digest %q, layer path %q", op, cases[i].name, d, ref[i])
			}
		}
	}
	for op, t := range traced {
		for i, d := range t.digests {
			if d != ref[i] {
				out.fail("traced op %d, %s: digest %q, reference %q", op+1, cases[i].name, d, ref[i])
			}
		}
	}

	kernelsPerOp := float64(n * len(cases))
	m := out.metrics
	m["setup_s"] = setupS
	m["latency_p50_ms"] = median(walls)
	m["throughput_per_s"] = kernelsPerOp / (m["latency_p50_ms"] / 1e3)
	m["apt.op_p90_ms"] = quantile(walls, 0.9)
	m["apt.alloc_bytes_per_kernel"] = float64(allocBytes) / (kernelsPerOp * float64(len(walls)))
	if len(traced) > 0 {
		summariseTraced(m, in, traced, batch, workers)
	}
	return out, nil
}

// tracedSimOp is the layer-path measurement following one operation.
type tracedSimOp struct {
	wallMs  float64
	costs   layerRun   // the traced cost prep (shared by all cases)
	plain   []layerRun // Select untimed, no spans
	traced  []layerRun // Select timed, spans recorded
	digests []string
}

// tracedOp runs every case through the layer path twice: plain, then with
// Select timed and spans recorded. A batch shares one cost prep and one
// Runner per path across its cases, as apt.RunBatch's workers do; a single
// run gets a fresh Runner, as apt.Run's pooled one is after a GC.
func tracedOp(in *simInputs, cases []simCase, batch bool, tr *tracer, parent int, req int64) (tracedSimOp, error) {
	var top tracedSimOp
	var shared *sim.Costs
	if batch {
		costs, cms, cb, err := in.prepareCosts(tr, parent, req)
		if err != nil {
			return top, err
		}
		shared, top.costs = costs, layerRun{costsMs: cms, costsBytes: cb}
	}
	plainRunner, tracedRunner := sim.NewRunner(), sim.NewRunner()
	for _, c := range cases {
		if !batch {
			plainRunner, tracedRunner = sim.NewRunner(), sim.NewRunner()
		}
		plain, err := runLayers(in, shared, plainRunner, c, false, nil, 0, 0)
		if err != nil {
			return top, err
		}
		cs := tr.start("layers "+c.name, parent, req)
		traced, err := runLayers(in, shared, tracedRunner, c, true, tr, cs.id, req)
		cs.end()
		if err != nil {
			return top, err
		}
		if !batch {
			top.costs = layerRun{costsMs: traced.costsMs, costsBytes: traced.costsBytes}
		}
		top.plain = append(top.plain, plain)
		top.traced = append(top.traced, traced)
		top.digests = append(top.digests, traced.digest)
		if plain.digest != traced.digest {
			return top, fmt.Errorf("%s: plain and traced layer paths disagree: %q vs %q", c.name, plain.digest, traced.digest)
		}
	}
	return top, nil
}

// summariseTraced turns the traced operations into per-layer metrics, each
// the median over operations of the per-operation sum over cases.
func summariseTraced(m map[string]float64, in *simInputs, ops []tracedSimOp, batch bool, workers int) {
	per := func(f func(tracedSimOp) float64) float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = f(op)
		}
		return median(xs)
	}
	total := func(rs []layerRun, f func(layerRun) float64) float64 {
		t := 0.0
		for _, r := range rs {
			t += f(r)
		}
		return t
	}
	tracedSum := func(f func(layerRun) float64) float64 {
		return per(func(op tracedSimOp) float64 { return total(op.traced, f) })
	}
	m["workload.build_ms"] = in.buildMs
	m["sim.costs_ms"] = per(func(op tracedSimOp) float64 { return op.costs.costsMs })
	m["sim.costs_bytes_per_kernel"] = per(func(op tracedSimOp) float64 { return float64(op.costs.costsBytes) / float64(in.n) })
	m["policy.prepare_ms"] = tracedSum(func(r layerRun) float64 { return r.prepareMs })
	m["sim.loop_ms"] = tracedSum(func(r layerRun) float64 { return r.loopMs })
	m["core.select_ms"] = tracedSum(func(r layerRun) float64 { return r.selectMs })
	m["core.select_calls"] = tracedSum(func(r layerRun) float64 { return float64(r.selectCalls) })
	m["core.ready_scanned"] = tracedSum(func(r layerRun) float64 { return float64(r.readyLen) })
	m["sim.ready_len_mean"] = m["core.ready_scanned"] / math.Max(m["core.select_calls"], 1)
	m["core.alt_share"] = tracedSum(func(r layerRun) float64 { return float64(r.alt) }) /
		tracedSum(func(r layerRun) float64 { return float64(r.assigned) })
	m["sim.validate_ms"] = tracedSum(func(r layerRun) float64 { return r.validateMs })

	plainEngine := func(op tracedSimOp) float64 { return total(op.plain, layerRun.engineMs) }
	m["bench.trace_overhead_pct"] = per(func(op tracedSimOp) float64 {
		return (total(op.traced, layerRun.engineMs)/plainEngine(op) - 1) * 100
	})
	if batch {
		// The serial cost of the batch's work against the pool's capacity:
		// the slowest config bounds the wall time.
		m["apt.batch_parallel_eff"] = per(func(op tracedSimOp) float64 {
			return (op.costs.costsMs + plainEngine(op)) / (op.wallMs * float64(workers))
		})
	} else {
		// apt.Run minus the layers the plain path timed: result assembly,
		// option handling and policy instantiation, as a residual.
		residual := func(op tracedSimOp) float64 {
			return op.wallMs - total(op.plain, func(r layerRun) float64 { return r.costsMs + r.engineMs() })
		}
		m["apt.assemble_ms"] = per(residual)
		m["apt.uncovered_share"] = per(func(op tracedSimOp) float64 { return residual(op) / op.wallMs })
	}

	kernels := float64(in.n * len(ops[0].plain))
	plainKps := per(func(op tracedSimOp) float64 { return kernels / ((op.costs.costsMs + plainEngine(op)) / 1e3) })
	tracedKps := per(func(op tracedSimOp) float64 {
		return kernels / ((op.costs.costsMs + total(op.traced, layerRun.engineMs)) / 1e3)
	})
	fmt.Printf("# layer path kernels/s: untraced %.6g, traced %.6g (tracing overhead %.3g%%)\n",
		plainKps, tracedKps, m["bench.trace_overhead_pct"])
	if !batch {
		fmt.Printf("# share of apt.Run wall time not covered by the sim layer spans: %.3g\n", m["apt.uncovered_share"])
	}
}
