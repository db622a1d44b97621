package runner

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testConfig shrinks the GPU so a pool test runs in milliseconds.
func testConfig() config.Config {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	return cfg
}

// run is the batch form every caller builds from the pool: Execute
// mapped over the jobs (gpgpumem.MeasureBatch is exactly this).
func run(ctx context.Context, jobs []Job, opt Options) ([]sim.Results, error) {
	return Map(ctx, len(jobs), opt, func(i int) (sim.Results, error) { return Execute(jobs[i]) })
}

func testJobs(t *testing.T, n int) []Job {
	t.Helper()
	names := []string{"sc", "cfd", "nn", "lbm"}
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		wl, err := workload.ByName(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig()
		if i%3 == 1 {
			// Mix sweep points into the batch like the Fig. 1 grid does.
			cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: int64(50 * i)}
		}
		jobs = append(jobs, Job{Config: cfg, Workload: wl, WarmupCycles: 500, WindowCycles: 1500})
	}
	return jobs
}

// TestRunDeterministicAcrossParallelism is the engine's core
// invariant: the same batch yields bit-identical results at any
// worker count, in submission order.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	jobs := testJobs(t, 8)
	serial, err := run(context.Background(), jobs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	serialAgain, err := run(context.Background(), jobs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := run(context.Background(), jobs, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial[i] != serialAgain[i] {
			t.Fatalf("job %d: serial re-run differs — simulation is not deterministic", i)
		}
		if serial[i] != parallel[i] {
			t.Fatalf("job %d: parallel result differs from serial\nserial:   %+v\nparallel: %+v",
				i, serial[i], parallel[i])
		}
		if serial[i].Cycles != 1500 || serial[i].IPC <= 0 {
			t.Fatalf("job %d: implausible measurement %+v", i, serial[i])
		}
	}
}

// TestRunMatchesExecute pins the pool to the single-job methodology.
func TestRunMatchesExecute(t *testing.T) {
	jobs := testJobs(t, 3)
	direct := make([]interface{}, len(jobs))
	for i, j := range jobs {
		r, err := Execute(j)
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = r
	}
	pooled, err := run(context.Background(), jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if direct[i] != pooled[i] {
			t.Fatalf("job %d: pooled result differs from direct Execute", i)
		}
	}
}

// TestRunCollectsPerJobErrors verifies a failing sweep point does not
// abort the rest of the grid and is reported with its index.
func TestRunCollectsPerJobErrors(t *testing.T) {
	jobs := testJobs(t, 4)
	bad := testConfig()
	bad.Core.MaxWarpsPerSM = 1 // every built-in workload wants more
	jobs[2].Config = bad

	res, err := run(context.Background(), jobs, Options{Parallelism: 4})
	if err == nil {
		t.Fatal("want an error for job 2")
	}
	if !strings.Contains(err.Error(), "job 2") {
		t.Fatalf("error does not name the failing job: %v", err)
	}
	for i := range jobs {
		if i == 2 {
			if res[i].Cycles != 0 {
				t.Fatalf("failed job has non-zero results: %+v", res[i])
			}
			continue
		}
		if res[i].Cycles != 1500 {
			t.Fatalf("job %d did not run to completion: %+v", i, res[i])
		}
	}
}

// TestRunRecoversWorkerPanic: a panicking job becomes its error, and
// the pool survives.
func TestRunRecoversWorkerPanic(t *testing.T) {
	jobs := testJobs(t, 3)
	// Spec.Stream panics on invalid specs; sim.New calls it during
	// construction, so this panics inside the worker.
	jobs[1].Workload = workload.Spec{SpecName: "broken", Warps: 2}

	res, err := run(context.Background(), jobs, Options{Parallelism: 3})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want a captured panic error, got %v", err)
	}
	if res[0].Cycles != 1500 || res[2].Cycles != 1500 {
		t.Fatal("healthy jobs did not complete")
	}
}

// TestRunCancellation: a canceled context fails the remaining jobs
// with context.Canceled instead of running them.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := testJobs(t, 4)
	res, err := run(ctx, jobs, Options{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i := range res {
		if res[i].Cycles != 0 {
			t.Fatalf("job %d ran despite cancellation", i)
		}
	}
}

// TestRunProgress: the callback sees every completion exactly once,
// in a strictly increasing done count.
func TestRunProgress(t *testing.T) {
	jobs := testJobs(t, 6)
	var calls []int
	_, err := run(context.Background(), jobs, Options{
		Parallelism: 4,
		Progress: func(done, total int) {
			if total != len(jobs) {
				t.Errorf("total = %d, want %d", total, len(jobs))
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(jobs) {
		t.Fatalf("progress called %d times, want %d", len(calls), len(jobs))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress sequence %v not strictly increasing by one", calls)
		}
	}
}

// TestRunEmptyBatch: no jobs, no error, no hang.
func TestRunEmptyBatch(t *testing.T) {
	res, err := run(context.Background(), nil, Options{Parallelism: 8})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestOptionsWorkers pins the Parallelism resolution rules.
func TestOptionsWorkers(t *testing.T) {
	if got := (Options{Parallelism: 1}).workers(10); got != 1 {
		t.Fatalf("explicit 1 → %d", got)
	}
	if got := (Options{Parallelism: 16}).workers(3); got != 3 {
		t.Fatalf("capped by batch size: %d", got)
	}
	if got := (Options{}).workers(64); got < 1 {
		t.Fatalf("default workers %d", got)
	}
}

// TestRunNilWorkloadJob: a zero-value Job (nil Workload) must surface
// as that job's error, not crash the process via the error path.
func TestRunNilWorkloadJob(t *testing.T) {
	jobs := testJobs(t, 2)
	jobs = append(jobs, Job{}) // zero value: nil Workload
	res, err := run(context.Background(), jobs, Options{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "job 2") {
		t.Fatalf("want a per-job error naming job 2, got %v", err)
	}
	if res[0].Cycles != 1500 || res[1].Cycles != 1500 {
		t.Fatal("healthy jobs did not complete")
	}
}
