package exp

import (
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fastParams keeps harness tests quick.
func fastParams() RunParams { return RunParams{WarmupCycles: 1500, WindowCycles: 4000} }

// smallConfig shrinks the GPU for harness tests.
func smallConfig() config.Config {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	return cfg
}

// measure runs one job the way every surface does, with
// runner.Execute under p's methodology.
func measure(cfg config.Config, wl workload.Workload, p RunParams) (sim.Results, error) {
	return runner.Execute(runner.Job{
		Config: cfg, Workload: wl,
		WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
	})
}

func congested() workload.Spec {
	return workload.Spec{
		SpecName: "hammer", Warps: 24, ComputePerMem: 3, DepDist: 1,
		AccessPattern: workload.Thrash, WorkingSetLines: 1024,
		Shared: true, LinesPerAccess: 1,
	}
}

func TestMeasureProducesResults(t *testing.T) {
	r, err := measure(smallConfig(), congested(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 4000 || r.IPC <= 0 {
		t.Fatalf("bad window: %+v", r)
	}
}

func TestMeasureRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.L1.Sets = 0
	if _, err := measure(cfg, congested(), fastParams()); err == nil {
		t.Fatalf("expected error")
	}
}

func TestCrossoverInterpolation(t *testing.T) {
	pts := []LatencyPoint{
		{Latency: 0, Normalized: 3},
		{Latency: 100, Normalized: 2},
		{Latency: 200, Normalized: 0.5},
	}
	got := crossover(pts)
	// Between 100 (2.0) and 200 (0.5): crosses 1.0 at 100 + 100·(1/1.5).
	want := 100 + 100*(1.0/1.5)
	if got < want-1 || got > want+1 {
		t.Fatalf("crossover = %v, want ≈%v", got, want)
	}
}

func TestCrossoverEdgeCases(t *testing.T) {
	if got := crossover(nil); got != 0 {
		t.Fatalf("empty crossover = %v", got)
	}
	below := []LatencyPoint{{Latency: 50, Normalized: 0.8}}
	if got := crossover(below); got != 50 {
		t.Fatalf("all-below crossover = %v", got)
	}
	above := []LatencyPoint{{Latency: 0, Normalized: 3}, {Latency: 100, Normalized: 2}}
	if got := crossover(above); got != 100 {
		t.Fatalf("all-above crossover = %v", got)
	}
}

func TestDefaultLatenciesMatchFigure(t *testing.T) {
	lats := DefaultLatencies()
	if len(lats) != 17 || lats[0] != 0 || lats[16] != 800 || lats[1] != 50 {
		t.Fatalf("x-axis wrong: %v", lats)
	}
}
