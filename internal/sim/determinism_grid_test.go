package sim_test

// A measurement is a pure function of its job, so the worker pool must
// not be able to change one: this file runs a broad grid — every
// built-in benchmark on the real hierarchy and in fixed-latency
// (Fig. 1) mode, every multi-phase scenario, and a pile of randomized
// multi-phase specs — serially and on four workers, and holds every
// job's Results to reflect.DeepEqual (including the full
// StallBreakdown) and to stall closure. It lives outside package sim
// so it can drive the runner pool the CLIs use.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// gridJobs builds the property-test grid: one real-hierarchy job per
// workload, plus a fixed-latency job per Fig. 1 suite benchmark so
// the timing-wheel delivery path is exercised, not just the hierarchy.
func gridJobs(t *testing.T) []runner.Job {
	t.Helper()
	cfg := config.GTX480Baseline()
	fixed := cfg
	fixed.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 400}

	var jobs []runner.Job
	add := func(c config.Config, w workload.Workload) {
		jobs = append(jobs, runner.Job{
			Config: c, Workload: w,
			WarmupCycles: 300, WindowCycles: 1200,
		})
	}
	for _, w := range workload.Suite() {
		add(cfg, w)
		add(fixed, w)
	}
	for _, s := range workload.Scenarios() {
		add(cfg, s)
	}
	for i, s := range fuzzedSpecs(20) {
		if err := s.Validate(); err != nil {
			t.Fatalf("fuzzed spec %d invalid: %v", i, err)
		}
		add(cfg, s)
	}
	return jobs
}

// fuzzedSpecs generates n random multi-phase specs from a fixed seed,
// so a failure names a reproducible spec. The draws stay inside
// Spec.Validate's envelope but deliberately hit the corners: single
// warps and full occupancy, store-only and load-only phases, every
// access pattern, phases sharing and not sharing regions.
func fuzzedSpecs(n int) []workload.Spec {
	r := rand.New(rand.NewSource(0x1f5))
	patterns := []workload.Pattern{
		workload.Streaming, workload.Strided, workload.Stencil,
		workload.Gather, workload.Thrash, workload.Hotset,
		workload.Transpose,
	}
	specs := make([]workload.Spec, n)
	for i := range specs {
		phases := make([]workload.PhaseSpec, 2+r.Intn(3))
		for p := range phases {
			pat := patterns[r.Intn(len(patterns))]
			lpa := 1 + r.Intn(4)
			wsl := lpa + r.Intn(8192)
			stride := 0
			switch pat {
			case workload.Strided:
				stride = 1 + r.Intn(16)
			case workload.Transpose:
				stride = r.Intn(wsl + 1)
			}
			phases[p] = workload.PhaseSpec{
				PhaseName:       fmt.Sprintf("p%d", p),
				Instructions:    50 + r.Intn(400),
				ComputePerMem:   r.Intn(8),
				StoreFrac:       float64(r.Intn(11)) / 10,
				AccessPattern:   pat,
				WorkingSetLines: wsl,
				LinesPerAccess:  lpa,
				StrideLines:     stride,
				HitFrac:         float64(r.Intn(11)) / 10,
				DepDist:         r.Intn(5), // 0 inherits the spec's
				Region:          r.Intn(4),
			}
		}
		specs[i] = workload.Spec{
			SpecName:      fmt.Sprintf("fuzz-%02d", i),
			Warps:         1 + r.Intn(48),
			ComputePerMem: r.Intn(8),
			DepDist:       1 + r.Intn(6),
			Shared:        r.Intn(2) == 0,
			Phases:        phases,
		}
	}
	return specs
}

// TestGridDeterministicAcrossParallelism: serial vs four workers —
// two runs of the same grid, one answer, and every answer closes its
// stall stack (cycles × SMs issue slots, each charged once).
func TestGridDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism grid runs ~40 simulations twice")
	}
	jobs := gridJobs(t)
	run := func(par int) []sim.Results {
		t.Helper()
		res, err := runner.Map(context.Background(), len(jobs), runner.Options{Parallelism: par}, func(i int) (sim.Results, error) {
			return runner.Execute(jobs[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial, parallel := run(1), run(4)
	for i, j := range jobs {
		name := j.Workload.Name()
		if want := j.WindowCycles * int64(j.Config.Core.NumSMs); serial[i].Stalls.Total() != want {
			t.Errorf("job %d (%s): stall stack totals %d, want %d (cycles × SMs)",
				i, name, serial[i].Stalls.Total(), want)
		}
		if !reflect.DeepEqual(serial[i].Stalls, parallel[i].Stalls) {
			t.Errorf("job %d (%s): StallBreakdown differs between -j1 and -j4:\n-j1 %+v\n-j4 %+v",
				i, name, serial[i].Stalls, parallel[i].Stalls)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("job %d (%s): Results differ between -j1 and -j4:\n-j1 %+v\n-j4 %+v",
				i, name, serial[i], parallel[i])
		}
	}
}
