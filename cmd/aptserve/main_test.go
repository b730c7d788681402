package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	if cfg.procs == 0 {
		cfg.procs = 3
	}
	if cfg.alpha == 0 {
		cfg.alpha = 4
	}
	if cfg.speed == 0 {
		cfg.speed = 1000 // millisecond estimates run in microseconds
	}
	if cfg.maxBody == 0 {
		cfg.maxBody = 1 << 20
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestServeSmoke is the end-to-end smoke: submit over HTTP, submit a
// dependency graph, read /stats percentiles, then drain. Run with -race
// in CI, it covers the full serving stack.
func TestServeSmoke(t *testing.T) {
	srv, ts := testServer(t, config{})

	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	// Single task: GPU-dominant estimates, expect processor 1.
	var sub taskResponse
	resp := postJSON(t, ts.URL+"/v1/submit", taskRequest{
		Name:  "matmul",
		EstMs: []float64{26, 0.1, 95},
	}, &sub)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if sub.Err != "" || sub.Proc != 1 {
		t.Fatalf("submit response %+v, want proc 1", sub)
	}
	if sub.SojournMs <= 0 {
		t.Errorf("sojourn %v, want > 0", sub.SojournMs)
	}

	// Concurrent load so /stats has a distribution to report.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var out taskResponse
				postJSON(t, ts.URL+"/v1/submit", taskRequest{
					Name:  fmt.Sprintf("t%d-%d", g, i),
					EstMs: []float64{1 + float64(i%3), 1 + float64((i+1)%3), 1 + float64((i+2)%3)},
				}, &out)
				if out.Err != "" {
					t.Errorf("task error: %s", out.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Diamond graph: a → {b, c} → d.
	var graph graphResponse
	resp = postJSON(t, ts.URL+"/v1/graph", graphRequest{Tasks: []graphTaskRequest{
		{taskRequest: taskRequest{Name: "a", EstMs: []float64{1, 2, 3}}},
		{taskRequest: taskRequest{Name: "b", EstMs: []float64{2, 1, 3}}, Deps: []int{0}},
		{taskRequest: taskRequest{Name: "c", EstMs: []float64{3, 2, 1}}, Deps: []int{0}},
		{taskRequest: taskRequest{Name: "d", EstMs: []float64{1, 1, 1}}, Deps: []int{1, 2}},
	}}, &graph)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph status %d", resp.StatusCode)
	}
	if graph.Err != "" || len(graph.Results) != 4 {
		t.Fatalf("graph response %+v", graph)
	}
	if graph.ElapsedMs <= 0 {
		t.Errorf("graph elapsed %v, want > 0", graph.ElapsedMs)
	}
	for _, r := range graph.Results {
		if r.SojournMs <= 0 {
			t.Errorf("graph task %q sojourn %v, want > 0 (measured, not fabricated)", r.Name, r.SojournMs)
		}
	}

	var st struct {
		Submitted int `json:"submitted"`
		Completed int `json:"completed"`
		Sojourn   struct {
			Count int     `json:"count"`
			P50Ms float64 `json:"p50_ms"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"sojourn"`
		Alpha float64 `json:"alpha"`
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	want := 1 + 8*10 + 4
	if st.Completed != want || st.Submitted != want {
		t.Fatalf("stats %+v, want %d completed", st, want)
	}
	if st.Sojourn.Count != want || st.Sojourn.P50Ms <= 0 || st.Sojourn.P99Ms < st.Sojourn.P50Ms {
		t.Fatalf("sojourn summary insane: %+v", st.Sojourn)
	}
	if st.Alpha != 4 {
		t.Errorf("alpha = %v, want 4", st.Alpha)
	}

	// Graceful drain publishes a final snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final := srv.shutdown(ctx)
	if final.Completed != want {
		t.Fatalf("final stats %+v, want %d completed", final, want)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := testServer(t, config{})
	cases := []struct {
		url  string
		body any
	}{
		{"/v1/submit", taskRequest{Name: "wrong-len", EstMs: []float64{1}}},
		{"/v1/submit", taskRequest{Name: "neg", EstMs: []float64{1, -2, 3}}},
		{"/v1/submit", taskRequest{Name: "actual-mismatch", EstMs: []float64{1, 2, 3}, ActualMs: []float64{1}}},
		{"/v1/graph", graphRequest{Tasks: []graphTaskRequest{
			{taskRequest: taskRequest{Name: "cyc-a", EstMs: []float64{1, 1, 1}}, Deps: []int{1}},
			{taskRequest: taskRequest{Name: "cyc-b", EstMs: []float64{1, 1, 1}}, Deps: []int{0}},
		}}},
		{"/v1/graph", graphRequest{}},
	}
	for _, c := range cases {
		var out map[string]any
		resp := postJSON(t, ts.URL+c.url, c.body, &out)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %+v: status %d, want 400", c.url, c.body, resp.StatusCode)
		}
		if out["error"] == "" {
			t.Errorf("POST %s: no error message", c.url)
		}
	}
}

func TestServeSubmitAfterDrain(t *testing.T) {
	srv, ts := testServer(t, config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.shutdown(ctx)
	var out map[string]any
	resp := postJSON(t, ts.URL+"/v1/submit", taskRequest{Name: "late", EstMs: []float64{1, 1, 1}}, &out)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("submit after drain: status %d, want 409", resp.StatusCode)
	}
	if out["code"] != "draining" {
		t.Fatalf("submit after drain: code %v, want draining", out["code"])
	}
}
