// Package exp contains the sweeps that regenerate every figure and
// table of the paper — the Fig. 1 latency-tolerance sweep (with the
// §II crossover analysis), the §III queue-occupancy characterization,
// and the Table I / §IV design-space exploration — plus the
// characterization sweeps built on the same simulator (stall
// attribution, scenarios, the what-if advisor, mitigation policies).
//
// Each sweep is a grid of fully independent simulations, split into a
// pure pair: a *Grid half that expands the workloads into ordered
// (config, spec) jobs, and a Build*Report half that merges the
// ordered results into the report. The internal/api registry wraps
// each pair as a sweep kind and executes it on the internal/runner
// worker pool; because each sim.GPU instance owns all of its state
// (including the seeded RNG behind the workload address streams), a
// report is bit-identical at any parallelism and however its grid
// was distributed.
package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunParams sets the measurement methodology shared by all sweeps:
// warm up the caches and queues, reset statistics, then measure a
// fixed window (steady-state IPC, like GPGPU-Sim's periodic stats).
type RunParams struct {
	WarmupCycles int64
	WindowCycles int64
	// Parallelism is the worker count a sweep's grid runs on. 0 means
	// runtime.GOMAXPROCS(0); 1 is fully serial.
	Parallelism int
}

// DefaultRunParams balances fidelity and runtime; the CLIs expose
// flags to lengthen the runs and -j to change the worker count.
func DefaultRunParams() RunParams {
	return RunParams{WarmupCycles: 6000, WindowCycles: 20000}
}

// GridJob is one entry of a sweep's measurement grid: the exact
// (config, spec) pair to measure. Most grids vary the architecture
// per job (a perturbation, a mitigation policy, a fixed L1-miss
// latency, a Table I scaling set), so the grid carries configs.
type GridJob struct {
	Config config.Config
	Spec   workload.Spec
}

// Measure builds a GPU for (cfg, wl), runs warmup+window, and returns
// the window's results. It is the single-job form of the engine: the
// worker pool executes exactly this per job, so a batch at any
// parallelism is bit-identical to calling Measure in a loop.
func Measure(cfg config.Config, wl workload.Workload, p RunParams) (sim.Results, error) {
	r, err := runner.Execute(runner.Job{
		Config: cfg, Workload: wl,
		WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
	})
	if err != nil {
		return sim.Results{}, fmt.Errorf("exp: %w", err)
	}
	return r, nil
}

// MustMeasure is Measure for callers with pre-validated inputs.
func MustMeasure(cfg config.Config, wl workload.Workload, p RunParams) sim.Results {
	r, err := Measure(cfg, wl, p)
	if err != nil {
		panic(err)
	}
	return r
}
