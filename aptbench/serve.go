package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/online"
)

const (
	serveProcs = 3
	serveAlpha = 4 // aptserve's default -alpha
	// conns is the client's connection budget: at most nproc (2 here)
	// requests are in flight at once.
	conns = 2
	// submitRefRate is serve-submit's reference Poisson rate.
	submitRefRate = 1000.0
	// submitP99LimitMs is the ladder's latency limit.
	submitP99LimitMs = 5.0
	graphTasks       = 64
	graphLayers      = 8
	graphFanIn       = 2
	// warmSubmits and warmGraphs are the fixed warm-up work after each
	// boot, part of set-up.
	warmSubmits = 1000
	warmGraphs  = 4
	// serve-submit alternates rounds of one submitWindow of the reference
	// stream and one rateWindow of the closed loop over the whole run; a
	// latency or rate is the median over rounds, so that noise from outside
	// the benchmark moves at most the rounds it overlaps.
	submitWindow = time.Second
	rateWindow   = 500 * time.Millisecond
)

// ladderRates is serve-submit's fixed doubling ladder of offered rates.
var ladderRates = []float64{1000, 2000, 4000, 8000, 16000, 32000}

// taskKind is one examples/online-host task kind: estimated cost per
// processor (CPU, GPU, FPGA).
type taskKind struct {
	name string
	est  []float64
}

var taskKinds = []taskKind{
	{"matmul", []float64{26, 0.1, 95}},
	{"nw", []float64{1.1, 1.5, 4.0}},
	{"bfs", []float64{3.3, 1.7, 1.1}},
	{"cd", []float64{1.7, 0.3, 0.01}},
}

// taskRequest and taskResponse mirror aptserve's /v1 JSON.
type taskRequest struct {
	Name     string    `json:"name"`
	EstMs    []float64 `json:"est_ms"`
	ActualMs []float64 `json:"actual_ms,omitempty"`
	Deps     []int     `json:"deps,omitempty"`
}

type taskResponse struct {
	Name        string  `json:"name"`
	Proc        int     `json:"proc"`
	Alt         bool    `json:"alt"`
	SojournMs   float64 `json:"sojourn_ms"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	Err         string  `json:"err"`
}

type graphResponse struct {
	ElapsedMs float64        `json:"elapsed_ms"`
	Err       string         `json:"err"`
	Results   []taskResponse `json:"results"`
}

type statsResponse struct {
	Submitted     int       `json:"submitted"`
	Completed     int       `json:"completed"`
	Rejected      int       `json:"rejected"`
	Failed        int       `json:"failed"`
	Settled       int       `json:"settled"`
	Retries       int       `json:"retries"`
	PerProcBusyMs []float64 `json:"per_proc_busy_ms"`
	UptimeMs      float64   `json:"uptime_ms"`
}

// checkTask validates one task result; it returns "" when the result is
// well formed.
func checkTask(r taskResponse) string {
	switch {
	case r.Err != "":
		return "task error: " + r.Err
	case r.Proc < 0 || r.Proc >= serveProcs:
		return fmt.Sprintf("proc %d out of range", r.Proc)
	case r.QueueWaitMs < 0 || r.QueueWaitMs > r.SojournMs:
		return fmt.Sprintf("queue_wait_ms %v outside [0, sojourn_ms %v]", r.QueueWaitMs, r.SojournMs)
	}
	return ""
}

// server is one aptserve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	waited chan error
	stderr *bytes.Buffer
}

// bootServer starts aptserve -procs 3 on a free loopback port, with every
// other flag at its default, and waits until /healthz answers 200.
func bootServer(bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("--aptserve is required for the serve workloads")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	s := &server{
		cmd:    exec.Command(bin, "-addr", addr, "-procs", strconv.Itoa(serveProcs)),
		base:   "http://" + addr,
		waited: make(chan error, 1),
		stderr: &bytes.Buffer{},
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	s.cmd.Stderr = s.stderr
	// Should the benchmark itself be killed, aptserve goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start aptserve: %w", err)
	}
	go func() { s.waited <- s.cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.waited:
			s.waited <- err
			return nil, fmt.Errorf("aptserve exited during boot (%v): %s", err, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("aptserve not healthy after 10s: %s", s.stderr.String())
		}
	}
}

// stop sends SIGTERM, waits for aptserve to drain and exit, and kills it
// after 10 s.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may have exited already
	select {
	case <-s.waited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // Wait below reaps it
		<-s.waited
	}
}

// post sends one JSON body and decodes a 200 response into v.
func (s *server) post(path string, body []byte, v any) error {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

func (s *server) stats() (statsResponse, error) {
	var st statsResponse
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// statsDelta waits until every task sent since before has settled and
// returns the counter difference.
func (s *server) statsDelta(before statsResponse, tasks int) (statsResponse, error) {
	var d statsResponse
	for deadline := time.Now().Add(2 * time.Second); ; {
		after, err := s.stats()
		if err != nil {
			return d, err
		}
		d = statsResponse{
			Submitted: after.Submitted - before.Submitted,
			Completed: after.Completed - before.Completed,
			Rejected:  after.Rejected - before.Rejected,
			Failed:    after.Failed - before.Failed,
			Settled:   after.Settled - before.Settled,
			Retries:   after.Retries - before.Retries,
			UptimeMs:  after.UptimeMs - before.UptimeMs,
		}
		for p := range after.PerProcBusyMs {
			d.PerProcBusyMs = append(d.PerProcBusyMs, after.PerProcBusyMs[p]-before.PerProcBusyMs[p])
		}
		if d.Settled >= tasks || time.Now().After(deadline) {
			return d, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkStats requires submitted = completed = settled = tasks and no
// failed or rejected task over a workload's window.
func checkStats(t *tally, d statsResponse, tasks int) {
	if d.Submitted != tasks || d.Completed != tasks || d.Settled != tasks || d.Failed != 0 || d.Rejected != 0 {
		t.fail("/v1/stats delta: submitted=%d completed=%d settled=%d failed=%d rejected=%d, want %d/%d/%d/0/0",
			d.Submitted, d.Completed, d.Settled, d.Failed, d.Rejected, tasks, tasks, tasks)
	}
}

// bootAndWarm boots aptserve repeatedly (see setupDone), warming each one
// up, and keeps the last; setup_s is the median boot-to-warm time.
func bootAndWarm(bin string, warm func(*server) error) (*server, float64, error) {
	var reps []float64
	var s *server
	for !setupDone(reps) {
		if s != nil {
			s.stop()
		}
		t0 := time.Now()
		var err error
		if s, err = bootServer(bin); err != nil {
			return nil, 0, err
		}
		if err := warm(s); err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	return s, median(reps), nil
}

// submitBodies pre-encodes one no-op submit body per task kind.
func submitBodies() [][]byte {
	bodies := make([][]byte, len(taskKinds))
	for i, k := range taskKinds {
		b, err := json.Marshal(taskRequest{Name: k.name, EstMs: k.est, ActualMs: make([]float64, serveProcs)})
		if err != nil {
			panic(err) // a fixed struct always encodes
		}
		bodies[i] = b
	}
	return bodies
}

// submitSample is one /v1/submit request.
type submitSample struct {
	latMs  float64 // from its due time, less the generator's own lateness
	lateMs float64 // the generator's lateness in sending it
	rttMs  float64 // send to response
	resp   taskResponse
	ok     bool
}

// phase is the outcome of one stream of submit requests.
type phase struct {
	samples    []submitSample
	finalLagMs float64 // how far behind its due time the last request was sent
}

func (p phase) collect(f func(submitSample) float64) []float64 {
	xs := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if s.ok {
			xs = append(xs, f(s))
		}
	}
	return xs
}

// latency returns the q-quantile of latency from due time.
func (p phase) latency(q float64) float64 {
	return quantile(p.collect(func(s submitSample) float64 { return s.latMs }), q)
}

// sendSubmit issues one request and validates its response.
func (s *server) sendSubmit(t *tally, body []byte, tr *tracer, req int64) (taskResponse, time.Duration, bool) {
	var resp taskResponse
	t.attempted.Add(1)
	tm := tr.start("http.POST /v1/submit", 0, req)
	err := s.post("/v1/submit", body, &resp)
	d := tm.end()
	if err != nil {
		t.fail("submit %d: %v", req, err)
		return resp, d, false
	}
	if msg := checkTask(resp); msg != "" {
		t.fail("submit %d: %s", req, msg)
		return resp, d, false
	}
	return resp, d, true
}

// openLoop offers a Poisson stream at rate for dur over the connection
// budget. Every request is timed from its due time, so a request that waits
// for a free connection is charged the wait. The generator's own lateness —
// the timer overshoot between the moment a connection was free for a
// request and the moment it was sent — is subtracted and reported apart.
func (s *server) openLoop(t *tally, rate float64, dur time.Duration, rng *rand.Rand, bodies [][]byte, tr *tracer, reqBase int64) phase {
	var due []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at > dur {
			break
		}
		due = append(due, at)
	}
	p := phase{samples: make([]submitSample, len(due))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					break
				}
				dueAt := start.Add(due[i])
				free := time.Now()
				avail := free
				if dueAt.After(free) {
					avail = dueAt
					time.Sleep(dueAt.Sub(free))
				}
				sent := time.Now()
				resp, rtt, ok := s.sendSubmit(t, bodies[i%len(bodies)], tr, reqBase+int64(i))
				late := sent.Sub(avail)
				p.samples[i] = submitSample{
					latMs:  ms(sent.Add(rtt).Sub(dueAt) - late),
					lateMs: ms(late),
					rttMs:  ms(rtt),
					resp:   resp,
					ok:     ok,
				}
				if i == len(due)-1 {
					p.finalLagMs = ms(sent.Sub(dueAt))
				}
			}
		}()
	}
	wg.Wait()
	return p
}

// closedLoop keeps the connection budget busy for dur, or until limit
// requests have been sent when limit > 0, and returns the completed
// requests per second and the number of requests sent.
func (s *server) closedLoop(t *tally, dur time.Duration, limit int, bodies [][]byte) (float64, int) {
	var done, next, sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if limit > 0 && i >= int64(limit) {
					break
				}
				sent.Add(1)
				if _, _, ok := s.sendSubmit(t, bodies[i%int64(len(bodies))], nil, i); ok {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds(), int(sent.Load())
}

func runServeSubmit(o options, tr *tracer) (*outcome, error) {
	bodies := submitBodies()
	out := &outcome{metrics: map[string]float64{}}
	srv, setupS, err := bootAndWarm(o.aptserve, func(s *server) error {
		var t tally
		s.closedLoop(&t, time.Minute, warmSubmits, bodies)
		if t.failed.Load() > 0 {
			return errors.New("warm-up requests failed")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rng := rand.New(rand.NewSource(o.seed))
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["setup_s"] = setupS
	sent := 0
	run := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		var p50, p99, late, rps []float64
		for r := 0; r == 0 || time.Duration(r)*(submitWindow+rateWindow) < run; r++ {
			ref := srv.openLoop(&out.tally, submitRefRate, submitWindow, rng, bodies, nil, int64(sent))
			sent += len(ref.samples)
			p50 = append(p50, ref.latency(0.5))
			p99 = append(p99, ref.latency(0.99))
			late = append(late, quantile(ref.collect(func(s submitSample) float64 { return s.lateMs }), 0.99))
			rate, n := srv.closedLoop(&out.tally, rateWindow, 0, bodies)
			sent += n
			rps = append(rps, rate)
		}
		m["latency_p50_ms"] = median(p50)
		m["throughput_per_s"] = median(rps)
		fmt.Printf("# per round: p50 ms %.3g\n# per round: closed-loop requests/s %.4g\n", p50, rps)
		fmt.Printf("# reference rate %g/s over %d rounds: p50 %.4g ms, p99 %.4g ms (from due time); generator late p99 %.4g ms\n",
			submitRefRate, len(p50), m["latency_p50_ms"], median(p99), median(late))
	} else {
		// Rounds of the reference stream untraced, then traced: the
		// difference in p50 is the tracing overhead.
		var plainP50, plainP99, tracedP50, late, overhead, qwait, exec, alt []float64
		for r := 0; r == 0 || time.Duration(2*r)*submitWindow < run/2; r++ {
			plain := srv.openLoop(&out.tally, submitRefRate, submitWindow, rng, bodies, nil, int64(sent))
			sent += len(plain.samples)
			traced := srv.openLoop(&out.tally, submitRefRate, submitWindow, rng, bodies, tr, int64(sent))
			sent += len(traced.samples)
			plainP50 = append(plainP50, plain.latency(0.5))
			plainP99 = append(plainP99, plain.latency(0.99))
			tracedP50 = append(tracedP50, traced.latency(0.5))
			late = append(late, traced.collect(func(s submitSample) float64 { return s.lateMs })...)
			overhead = append(overhead, traced.collect(func(s submitSample) float64 { return s.rttMs - s.resp.SojournMs })...)
			qwait = append(qwait, traced.collect(func(s submitSample) float64 { return s.resp.QueueWaitMs })...)
			exec = append(exec, traced.collect(func(s submitSample) float64 { return s.resp.SojournMs - s.resp.QueueWaitMs })...)
			alt = append(alt, traced.collect(func(s submitSample) float64 { return b2f(s.resp.Alt) })...)
		}
		m["bench.trace_overhead_pct"] = (median(tracedP50)/median(plainP50) - 1) * 100
		fmt.Printf("# submit p50: untraced %.4g ms, traced %.4g ms (tracing overhead %.3g%%)\n",
			median(plainP50), median(tracedP50), m["bench.trace_overhead_pct"])
		m["aptserve.submit_p99_ms"] = median(plainP99)
		m["bench.gen_late_p99_ms"] = quantile(late, 0.99)
		m["aptserve.overhead_p50_ms"] = median(overhead)
		m["aptserve.overhead_p99_ms"] = quantile(overhead, 0.99)
		taskMetrics(m, qwait, exec, alt)

		maxRPS, n := srv.ladder(&out.tally, rateWindow, rng, bodies)
		sent += n
		m["bench.ladder_max_rps"] = maxRPS
		if m["online.submit_inproc_us"], err = inprocSubmit(&out.tally, run/10, tr); err != nil {
			return nil, err
		}
	}

	d, err := srv.statsDelta(before, sent)
	if err != nil {
		return nil, err
	}
	checkStats(&out.tally, d, sent)
	if o.trace {
		serverCounters(m, d)
	}
	return out, nil
}

// ladder offers each rate of ladderRates for step and returns the highest
// rate, climbing from the lowest, whose requests all succeeded with p99 from
// due time within submitP99LimitMs and whose last request went out on time
// (no growing backlog). It also returns the number of requests sent.
func (s *server) ladder(t *tally, step time.Duration, rng *rand.Rand, bodies [][]byte) (float64, int) {
	best, sent := 0.0, 0
	for _, rate := range ladderRates {
		failed := t.failed.Load()
		p := s.openLoop(t, rate, step, rng, bodies, nil, 0)
		sent += len(p.samples)
		p99 := quantile(p.collect(func(s submitSample) float64 { return s.latMs }), 0.99)
		ok := t.failed.Load() == failed && p99 <= submitP99LimitMs && p.finalLagMs <= submitP99LimitMs
		fmt.Printf("# ladder %6g/s: %5d requests, p99 %.4g ms, final lag %.4g ms, pass=%v\n",
			rate, len(p.samples), p99, p.finalLagMs, ok)
		if !ok {
			break
		}
		best = rate
	}
	return best, sent
}

// inprocSubmit measures online.Scheduler.Submit → Done in-process with
// aptserve's default configuration, the same task stream and no-op bodies,
// from conns goroutines. It returns the median in microseconds.
func inprocSubmit(t *tally, dur time.Duration, tr *tracer) (float64, error) {
	sc, err := online.NewWithConfig(online.Config{
		Procs:      serveProcs,
		Alpha:      serveAlpha,
		QueueLimit: online.DefaultQueueLimit,
		TraceDepth: 256,
		Retry:      online.RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Second},
	})
	if err != nil {
		return 0, err
	}
	sc.Start()
	defer sc.Close()
	noop := func(context.Context, online.ProcID) error { return nil }
	lat := make([][]float64, conns) // one slice per goroutine
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One span per goroutine: a span per call would cost about as
			// much as the call.
			loop := tr.start("online.Scheduler.Submit→Done loop", 0, int64(c))
			defer loop.end()
			for i := c; time.Now().Before(deadline); i += conns {
				k := taskKinds[i%len(taskKinds)]
				t.attempted.Add(1)
				t0 := time.Now()
				h, err := sc.Submit(online.Task{Name: k.name, EstMs: k.est, Run: noop})
				if err != nil {
					t.fail("in-process submit: %v", err)
					continue
				}
				res := <-h.Done
				d := time.Since(t0)
				if res.Err != nil || int(res.Proc) < 0 || int(res.Proc) >= serveProcs {
					t.fail("in-process submit: proc %d, err %v", res.Proc, res.Err)
					continue
				}
				lat[c] = append(lat[c], float64(d)/float64(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return median(all), nil
}

// taskMetrics fills the scheduler-wait, execution and placement metrics
// from per-task results.
func taskMetrics(m map[string]float64, qwait, exec, alt []float64) {
	m["online.queue_wait_p50_ms"] = median(qwait)
	m["online.queue_wait_p99_ms"] = quantile(qwait, 0.99)
	m["online.exec_p50_ms"] = median(exec)
	m["online.alt_share"] = sum(alt) / float64(max(len(alt), 1))
}

// serverCounters fills the processor and failure counters from a
// /v1/stats delta.
func serverCounters(m map[string]float64, d statsResponse) {
	m["online.busy_share"] = sum(d.PerProcBusyMs) / (d.UptimeMs * float64(serveProcs))
	m["online.rejected"] = float64(d.Rejected)
	m["online.retries"] = float64(d.Retries)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// graphBody builds serve-graph's fixed, seeded 64-task layered DAG: tasks
// spread evenly over graphLayers layers, each layer holding every task kind
// equally often in a seeded order, and each non-entry task depending on
// graphFanIn distinct tasks of the previous layer. The balanced kinds keep
// the total work the same for every seed; the seed varies the order and the
// edges. Bodies sleep their estimate on the chosen processor (actual_ms
// defaults to est_ms).
func graphBody(seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	per := graphTasks / graphLayers
	tasks := make([]taskRequest, graphTasks)
	var order []int
	for i := range tasks {
		if i%per == 0 {
			order = rng.Perm(per)
		}
		k := taskKinds[order[i%per]%len(taskKinds)]
		tasks[i] = taskRequest{Name: fmt.Sprintf("%s-%d", k.name, i), EstMs: k.est}
		if l := i / per; l > 0 {
			for _, j := range rng.Perm(per)[:graphFanIn] {
				tasks[i].Deps = append(tasks[i].Deps, (l-1)*per+j)
			}
		}
	}
	return json.Marshal(struct {
		Tasks []taskRequest `json:"tasks"`
	}{tasks})
}

// graphSample is one /v1/graph request.
type graphSample struct {
	latMs float64
	resp  graphResponse
}

// graphLoop runs conns closed-loop clients posting body for dur, or until
// limit graphs have been sent when limit > 0.
func (s *server) graphLoop(t *tally, dur time.Duration, limit int, body []byte, tr *tracer) ([]graphSample, time.Duration) {
	var mu sync.Mutex
	var samples []graphSample
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := next.Add(1)
				if limit > 0 && req > int64(limit) {
					break
				}
				var resp graphResponse
				tm := tr.start("http.POST /v1/graph", 0, req)
				err := s.post("/v1/graph", body, &resp)
				d := tm.end()
				msg := ""
				switch {
				case err != nil:
					msg = err.Error()
				case resp.Err != "":
					msg = "graph error: " + resp.Err
				case len(resp.Results) != graphTasks:
					msg = fmt.Sprintf("%d results for %d tasks", len(resp.Results), graphTasks)
				default:
					for _, r := range resp.Results {
						if msg = checkTask(r); msg != "" {
							break
						}
					}
				}
				t.attempted.Add(1)
				if msg != "" {
					t.fail("graph %d: %s", req, msg)
					continue
				}
				mu.Lock()
				samples = append(samples, graphSample{latMs: ms(d), resp: resp})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

func runServeGraph(o options, tr *tracer) (*outcome, error) {
	body, err := graphBody(o.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	srv, setupS, err := bootAndWarm(o.aptserve, func(s *server) error {
		var t tally
		s.graphLoop(&t, time.Minute, warmGraphs, body, nil)
		if t.failed.Load() > 0 {
			return errors.New("warm-up graphs failed")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["setup_s"] = setupS
	dur := time.Duration(o.seconds * float64(time.Second))
	sent := 0
	lats := func(ss []graphSample) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.latMs
		}
		return xs
	}
	if !o.trace {
		samples, elapsed := srv.graphLoop(&out.tally, dur, 0, body, nil)
		sent = int(out.attempted.Load()) * graphTasks
		lat := lats(samples)
		m["latency_p50_ms"] = median(lat)
		fmt.Printf("# %d graphs: p50 %.4g ms, p90 %.4g ms\n", len(lat), m["latency_p50_ms"], quantile(lat, 0.9))
		m["throughput_per_s"] = float64(len(samples)*graphTasks) / elapsed.Seconds()
	} else {
		plain, _ := srv.graphLoop(&out.tally, dur/2, 0, body, nil)
		traced, _ := srv.graphLoop(&out.tally, dur/2, 0, body, tr)
		sent = int(out.attempted.Load()) * graphTasks
		plainP50, tracedP50 := median(lats(plain)), median(lats(traced))
		m["aptserve.graph_p90_ms"] = quantile(lats(plain), 0.9)
		m["bench.trace_overhead_pct"] = (tracedP50/plainP50 - 1) * 100
		fmt.Printf("# graph p50: untraced %.4g ms, traced %.4g ms (tracing overhead %.3g%%)\n",
			plainP50, tracedP50, m["bench.trace_overhead_pct"])
		var qwait, exec, alt, elapsed, overhead []float64
		for _, s := range traced {
			elapsed = append(elapsed, s.resp.ElapsedMs)
			overhead = append(overhead, s.latMs-s.resp.ElapsedMs)
			for _, r := range s.resp.Results {
				qwait = append(qwait, r.QueueWaitMs)
				exec = append(exec, r.SojournMs-r.QueueWaitMs)
				alt = append(alt, b2f(r.Alt))
			}
		}
		taskMetrics(m, qwait, exec, alt)
		m["online.graph_elapsed_p50_ms"] = median(elapsed)
		m["aptserve.graph_overhead_ms"] = median(overhead)
	}
	d, err := srv.statsDelta(before, sent)
	if err != nil {
		return nil, err
	}
	checkStats(&out.tally, d, sent)
	if o.trace {
		serverCounters(m, d)
	}
	return out, nil
}
