package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, start and end relative to
// the run's start, the span that caused it (0 for a root) and the
// identifier shared by every span of one request or operation.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     int64   `json:"req"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps the spans of a traced run in memory until write. A nil
// *tracer records nothing, so untraced runs share the timing code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timer is an open span. Its zero parent makes a root span.
type timer struct {
	tr     *tracer
	id     int
	parent int
	name   string
	req    int64
	start  time.Time
}

// start opens a span named name under parent for request req. On a nil
// tracer it only starts the clock.
func (t *tracer) start(name string, parent int, req int64) timer {
	tm := timer{tr: t, parent: parent, name: name, req: req}
	if t != nil {
		t.mu.Lock()
		t.next++
		tm.id = t.next
		t.mu.Unlock()
	}
	tm.start = time.Now()
	return tm
}

// end closes the span and returns its duration.
func (tm timer) end() time.Duration {
	end := time.Now()
	d := end.Sub(tm.start)
	if t := tm.tr; t != nil {
		sp := span{
			ID: tm.id, Parent: tm.parent, Name: tm.name, Req: tm.req,
			StartUs: float64(tm.start.Sub(t.t0)) / 1e3,
			EndUs:   float64(end.Sub(t.t0)) / 1e3,
		}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans with the run's seed and machine fingerprint.
func (t *tracer) write(path string, o options, fp fingerprint) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload    string      `json:"workload"`
		Seed        int64       `json:"seed"`
		Seconds     float64     `json:"seconds"`
		Fingerprint fingerprint `json:"fingerprint"`
		Spans       []span      `json:"spans"`
	}{o.workload, o.seed, o.seconds, fp, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
