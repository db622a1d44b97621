package exp

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DesignSpaceResult holds the §IV exploration: per-workload speedups
// for each Table I scaling set, plus the suite averages the paper
// reports (L1 +4%, L2 +59%, DRAM +11%, L1+L2 +69%, L2+DRAM +76%).
type DesignSpaceResult struct {
	Sets      []config.ScalingSet
	Workloads []string
	// BaselineIPC[w] is workload w's baseline IPC.
	BaselineIPC []float64
	// Speedup[w][s] is IPC(set s) / IPC(baseline) for workload w.
	Speedup [][]float64
	// MeanSpeedup[s] is the arithmetic-mean speedup of set s across
	// workloads (the paper's "average speedup").
	MeanSpeedup []float64
}

// DesignSpaceGrid expands the §IV measurement grid: per workload, one
// baseline measurement on base (shared by every set's speedup)
// followed by one job per scaling set, in that order. ScaleNone must
// not be among sets (the baseline is implicit). The layout is part of
// the sweep's byte-identity contract — BuildDesignSpaceReport reads
// results in exactly this stride.
func DesignSpaceGrid(base config.Config, specs []workload.Spec, sets []config.ScalingSet) ([]GridJob, error) {
	return variantGrid("design-space", base, specs, len(sets), func(j int, cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
		return sets[j].Apply(cfg), sp
	})
}

// BuildDesignSpaceReport assembles the §IV result from
// DesignSpaceGrid's ordered results. It is the designspace sweep
// kind's pure merge half, the same function whether the results were
// computed locally or collected from a fleet, so the two reports are
// byte-identical.
func BuildDesignSpaceReport(specs []workload.Spec, sets []config.ScalingSet, measured []sim.Results) (DesignSpaceResult, error) {
	rows, err := splitRows("designspace", specs, len(sets), measured)
	if err != nil {
		return DesignSpaceResult{}, err
	}
	res := DesignSpaceResult{Sets: sets}
	per := make([][]float64, len(specs))
	for wi, sp := range specs {
		baseRes := rows[wi][0]
		res.Workloads = append(res.Workloads, sp.SpecName)
		res.BaselineIPC = append(res.BaselineIPC, baseRes.IPC)
		per[wi] = make([]float64, len(sets))
		for si := range sets {
			r := rows[wi][1+si]
			if baseRes.IPC > 0 {
				per[wi][si] = r.IPC / baseRes.IPC
			}
		}
	}
	res.Speedup = per
	res.MeanSpeedup = make([]float64, len(sets))
	for si := range sets {
		col := make([]float64, len(specs))
		for wi := range specs {
			col[wi] = per[wi][si]
		}
		res.MeanSpeedup[si] = stats.Mean(col)
	}
	return res, nil
}

// SpeedupFor returns the mean speedup of a given set, or 0 if the set
// was not evaluated.
func (r DesignSpaceResult) SpeedupFor(set config.ScalingSet) float64 {
	for i, s := range r.Sets {
		if s == set {
			return r.MeanSpeedup[i]
		}
	}
	return 0
}

// String renders Table I (the design space itself, from the live
// config code) followed by the §IV table: one row per workload, one
// column per scaling set, plus the average row the paper quotes.
func (r DesignSpaceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — consolidated design space to mitigate congestion\n\n")
	fmt.Fprintf(&b, "%-10s %-22s %-4s %-20s %s\n", "group", "parameter", "type", "baseline", "scaled (~4x)")
	group := ""
	for _, row := range config.TableI() {
		g := row.Group
		if g == group {
			g = ""
		} else {
			group = g
		}
		fmt.Fprintf(&b, "%-10s %-22s %-4s %-20s %s\n", g, row.Parameter, row.Type, row.Baseline, row.Scaled)
	}
	fmt.Fprintf(&b, "\n§IV — speedup over baseline when scaling Table I groups ~4×\n\n")
	fmt.Fprintf(&b, "%-10s %9s", "bench", "base-IPC")
	for _, s := range r.Sets {
		fmt.Fprintf(&b, " %9s", s)
	}
	fmt.Fprintln(&b)
	for wi, w := range r.Workloads {
		fmt.Fprintf(&b, "%-10s %9.3f", w, r.BaselineIPC[wi])
		for si := range r.Sets {
			fmt.Fprintf(&b, " %8.2f×", r.Speedup[wi][si])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s %9s", "average", "")
	for si := range r.Sets {
		fmt.Fprintf(&b, " %+8.0f%%", (r.MeanSpeedup[si]-1)*100)
	}
	fmt.Fprintf(&b, "\n(paper:  L1 +4%%, L2 +59%%, DRAM +11%%, L1+L2 +69%%, L2+DRAM +76%%)\n")
	return b.String()
}
