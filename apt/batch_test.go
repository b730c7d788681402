package apt_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/apt"
)

// sweepConfigs builds the (policy × α × workload) grid of a small sweep,
// the shape cmd/sweep fans through RunBatch.
func sweepConfigs(t testing.TB, nWorkloads int) []apt.RunConfig {
	t.Helper()
	m := apt.PaperMachine(4)
	var workloads []*apt.Workload
	for i := 0; i < nWorkloads; i++ {
		w, err := apt.GenerateWorkload(apt.Type2, 46+9*i, 7+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		workloads = append(workloads, w)
	}
	var cfgs []apt.RunConfig
	for _, pol := range []apt.Policy{apt.APT(4), apt.APT(1.5), apt.MET(1), apt.SPN(), apt.HEFT()} {
		for _, w := range workloads {
			cfgs = append(cfgs, apt.RunConfig{Workload: w, Machine: m, Policy: pol})
		}
	}
	return cfgs
}

// TestRunBatchMatchesRun is the determinism gate: batch results must be
// identical to sequential Run over the same configs, for any worker count.
func TestRunBatchMatchesRun(t *testing.T) {
	cfgs := sweepConfigs(t, 3)
	want := make([]*apt.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := apt.Run(cfg.Workload, cfg.Machine, cfg.Policy, cfg.Options)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 3, 16} {
		got, err := apt.RunBatch(context.Background(), cfgs, &apt.BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results for %d configs", workers, len(got), len(cfgs))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d config %d (%s): batch result differs from sequential Run",
					workers, i, cfgs[i].Policy.Name())
			}
		}
	}
}

func TestRunBatchReportsConfigErrors(t *testing.T) {
	cfgs := sweepConfigs(t, 1)
	bad := apt.RunConfig{Workload: nil, Machine: apt.PaperMachine(4), Policy: apt.APT(4)}
	cfgs = append([]apt.RunConfig{cfgs[0], bad}, cfgs[2:]...)
	results, err := apt.RunBatch(context.Background(), cfgs, nil)
	if err == nil {
		t.Fatal("want error for nil workload config")
	}
	if !strings.Contains(err.Error(), "config 1") {
		t.Errorf("error should name the failing config index: %v", err)
	}
	var be *apt.BatchError
	if !errors.As(err, &be) || len(be.Errs) != 1 {
		t.Fatalf("want *apt.BatchError with 1 failure, got %v", err)
	}
	var ce *apt.ConfigError
	if !errors.As(be.Errs[0], &ce) || ce.Index != 1 {
		t.Fatalf("want *apt.ConfigError with index 1, got %v", be.Errs[0])
	}
	if results[1] != nil {
		t.Error("failed config should leave a nil result")
	}
	for i, r := range results {
		if i != 1 && r == nil {
			t.Errorf("config %d: valid config lost its result", i)
		}
	}
}

func TestRunBatchCancelledContext(t *testing.T) {
	cfgs := sweepConfigs(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := apt.RunBatch(ctx, cfgs, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("config %d: want nil result after pre-cancelled context", i)
		}
	}
}

func TestRunBatchEmpty(t *testing.T) {
	results, err := apt.RunBatch(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("want no results, got %d", len(results))
	}
}

// TestRunBatchAltStats checks APT allocation statistics survive the batch
// path (they are read from the per-run policy instance).
func TestRunBatchAltStats(t *testing.T) {
	w, err := apt.GenerateWorkload(apt.Type2, 73, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := apt.PaperMachine(4)
	seq, err := apt.Run(w, m, apt.APT(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := apt.RunBatch(context.Background(), []apt.RunConfig{
		{Workload: w, Machine: m, Policy: apt.APT(8)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch[0].Alt, seq.Alt) {
		t.Errorf("batch Alt stats = %+v, want %+v", batch[0].Alt, seq.Alt)
	}
	if batch[0].Alt.Assignments == 0 {
		t.Error("APT run should count assignments")
	}
}

// BenchmarkSweepBatch and BenchmarkSweepSequential compare the batch API
// against sequential Run on a multi-policy sweep — the acceptance target is
// ≥2× wall-clock on a multi-core machine.
func BenchmarkSweepBatch(b *testing.B) {
	cfgs := sweepConfigs(b, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apt.RunBatch(context.Background(), cfgs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) {
	cfgs := sweepConfigs(b, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := apt.Run(cfg.Workload, cfg.Machine, cfg.Policy, cfg.Options); err != nil {
				b.Fatal(err)
			}
		}
	}
}
