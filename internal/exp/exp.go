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

// variantGrid is the one expansion behind the comparative sweeps
// (latency, designspace, advise, mitigation): per spec, the baseline
// job on base followed by the n jobs variant(0..n-1) derives from that
// baseline pair, in order. The layout is part of each sweep's
// byte-identity contract — splitRows reads the results back in
// exactly this stride.
func variantGrid(sweep string, base config.Config, specs []workload.Spec, n int,
	variant func(j int, cfg config.Config, sp workload.Spec) (config.Config, workload.Spec)) ([]GridJob, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exp: the %s sweep needs at least one workload", sweep)
	}
	grid := make([]GridJob, 0, len(specs)*(1+n))
	for _, sp := range specs {
		grid = append(grid, GridJob{Config: base, Spec: sp})
		for j := 0; j < n; j++ {
			cfg, vsp := variant(j, base, sp)
			grid = append(grid, GridJob{Config: cfg, Spec: vsp})
		}
	}
	return grid, nil
}

// splitRows cuts a variantGrid's ordered results into one row per
// spec — row[0] the baseline, row[1+j] variant j — after checking the
// result count against the stride. It is the split every comparative
// merge half shares.
func splitRows(sweep string, specs []workload.Spec, variants int, res []sim.Results) ([][]sim.Results, error) {
	stride := 1 + variants
	if len(res) != len(specs)*stride {
		return nil, fmt.Errorf("exp: %s merge: %d results for %d workloads (want %d)",
			sweep, len(res), len(specs), len(specs)*stride)
	}
	rows := make([][]sim.Results, len(specs))
	for i := range rows {
		rows[i] = res[i*stride : (i+1)*stride]
	}
	return rows, nil
}
