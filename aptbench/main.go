// Command aptbench is the repository's benchmark. It runs one named
// workload — two against the simulator, called in-process, and two against
// aptserve, started as a subprocess and driven over loopback HTTP — checks
// every output, and prints every metric by name and unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash aptbench/run.sh --workload sim-heft-200k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// times each layer's public calls from this package, records spans around
// them, writes the spans to --out and prints the per-layer metrics. See
// BENCHMARK.md for the workloads and the metric → layer → workload table.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd is every end-to-end metric; every workload reports all of them
// (BENCHMARK.md gives each one's meaning per workload).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer is every per-layer metric of the traced run. A layer a workload
// does not exercise reports 0.
var perLayer = []spec{
	{"workload.build_ms", "ms"},
	{"sim.costs_ms", "ms"},
	{"sim.costs_bytes_per_kernel", "B"},
	{"policy.prepare_ms", "ms"},
	{"sim.loop_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.select_calls", "count"},
	{"sim.ready_len_mean", "count"},
	{"core.ready_scanned", "count"},
	{"core.alt_share", "ratio"},
	{"sim.validate_ms", "ms"},
	{"apt.assemble_ms", "ms"},
	{"apt.uncovered_share", "ratio"},
	{"apt.batch_parallel_eff", "ratio"},
	{"apt.alloc_bytes_per_kernel", "B"},
	{"apt.op_p90_ms", "ms"},
	{"aptserve.submit_p99_ms", "ms"},
	{"aptserve.graph_p90_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.ladder_max_rps", "1/s"},
	{"bench.trace_overhead_pct", "%"},
	{"aptserve.overhead_p50_ms", "ms"},
	{"aptserve.overhead_p99_ms", "ms"},
	{"online.submit_inproc_us", "us"},
	{"online.queue_wait_p50_ms", "ms"},
	{"online.queue_wait_p99_ms", "ms"},
	{"online.exec_p50_ms", "ms"},
	{"online.graph_elapsed_p50_ms", "ms"},
	{"aptserve.graph_overhead_ms", "ms"},
	{"online.alt_share", "ratio"},
	{"online.busy_share", "ratio"},
	{"online.rejected", "count"},
	{"online.retries", "count"},
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	aptserve string
	out      string
}

// defaultSeed is the seed whose simulator digests are stored in
// digests.json.
const defaultSeed = 1

// outcome is what one workload run measured.
type outcome struct {
	tally
	metrics map[string]float64
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *tracer) (*outcome, error){
	"sim-apt-sweep": runAPTSweep,
	"sim-heft-200k": runHEFTScale,
	"serve-submit":  runServeSubmit,
	"serve-graph":   runServeGraph,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aptbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var trace int
	printDigests := flag.Bool("print-digests", false, "print the simulator reference digests of --seed as JSON and exit (to refresh digests.json)")
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.aptserve, "aptserve", "", "path of the built aptserve binary (serve-* workloads)")
	flag.StringVar(&o.out, "out", ".", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	if *printDigests {
		return writeDigests(os.Stdout, o.seed)
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fp := machineFingerprint()
	fmt.Printf("# aptbench workload=%s seed=%d trace=%v %s\n", o.workload, o.seed, o.trace, fp)
	out, err := fn(o, tr)
	if err != nil {
		return err
	}

	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	attempted, failed := int(out.attempted.Load()), int(out.failed.Load())
	rep := report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok && !o.trace {
			return fmt.Errorf("internal error: workload %s did not measure %s", o.workload, s.name)
		}
		rep.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Printf("%-30s %14.6g %s\n", s.name, v, s.unit)
	}
	fmt.Printf("# attempted=%d failed=%d fail_ratio=%.6g seed=%d %s\n",
		attempted, failed, float64(failed)/float64(max(attempted, 1)), o.seed, fp)
	if tr != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path, o, fp); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", tr.len(), path)
	}
	if rep.Attempted < 1 {
		return fmt.Errorf("internal error: workload %s attempted nothing", o.workload)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed operations, from any goroutine; the
// first few failures are described on standard error.
type tally struct {
	attempted, failed atomic.Int64
}

func (t *tally) fail(format string, args ...any) {
	if t.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "aptbench: FAIL "+format+"\n", args...)
	}
}

// fingerprint identifies the machine a run measured.
type fingerprint struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("go=%s os/arch=%s/%s cpu=%q nproc=%d gomaxprocs=%d",
		f.Go, f.GOOS, f.GOARCH, f.CPU, f.NumCPU, f.GOMAXPROCS)
}

func machineFingerprint() fingerprint {
	return fingerprint{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; elsewhere it
// reports "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// since returns the milliseconds elapsed from t0.
func since(t0 time.Time) float64 { return ms(time.Since(t0)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
