package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Perturbation is one candidate intervention of the what-if advisor: a
// named architectural (or software) change, the stall causes it is
// expected to relieve, its rough hardware cost, and the pure transform
// that produces the perturbed (config, spec) pair to measure.
type Perturbation struct {
	// Name identifies the intervention in reports and CSV.
	Name string
	// Description is the one-line summary reports print next to the
	// name.
	Description string
	// Targets lists the stall causes this intervention attacks; a
	// workload whose dominant cause is in the list gets the
	// intervention marked as targeted in its report row.
	Targets []stats.StallCause
	// Cost is the intervention's price in rough relative silicon units
	// (1.0 ≈ quadrupling the MSHR files). It is the denominator of the
	// ranking score, so cheap fixes outrank equally effective expensive
	// ones.
	Cost float64
	// Apply derives the perturbed simulation from the baseline pair.
	// It must be pure: same inputs, same outputs, no mutation of the
	// originals — the grid must stay a deterministic function of
	// (config, specs).
	Apply func(config.Config, workload.Spec) (config.Config, workload.Spec)
}

// Perturbations returns the advisor's candidate set, in grid order.
// The set covers the mitigations the paper's related work keeps
// recommending — bigger caches, more MSHRs, a wider interconnect,
// deeper queues — plus one software counterfactual (forced full
// coalescing); the advise sweep kind measures them all instead of
// citing them.
func Perturbations() []Perturbation {
	return []Perturbation{
		{
			Name:        "l1-x2",
			Description: "double the L1 data cache (2x sets)",
			Targets:     []stats.StallCause{stats.StallL1Miss},
			Cost:        2.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L1.Sets *= 2
				return cfg, sp
			},
		},
		{
			Name:        "l2-x2",
			Description: "double the shared L2 (2x sets per partition)",
			Targets:     []stats.StallCause{stats.StallL1Miss, stats.StallL2Queue},
			Cost:        4.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L2.Sets *= 2
				return cfg, sp
			},
		},
		{
			Name:        "mshr-x4",
			Description: "4x the L1 and L2 MSHR files",
			Targets:     []stats.StallCause{stats.StallMemPipe, stats.StallL1Miss},
			Cost:        1.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L1.MSHREntries *= 4
				cfg.L2.MSHREntries *= 4
				return cfg, sp
			},
		},
		{
			Name:        "icnt-x2",
			Description: "double the crossbar flit size",
			Targets:     []stats.StallCause{stats.StallIcnt},
			Cost:        2.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.Icnt.FlitSizeBytes *= 2
				return cfg, sp
			},
		},
		{
			Name:        "l2q-x4",
			Description: "4x the L2 access/miss/response/return queues",
			Targets:     []stats.StallCause{stats.StallL2Queue},
			Cost:        0.5,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L2.AccessQueue *= 4
				cfg.L2.MissQueue *= 4
				cfg.L2.ResponseQueue *= 4
				cfg.L2.DRAMReturnQueue *= 4
				return cfg, sp
			},
		},
		{
			Name:        "dramq-x4",
			Description: "4x the DRAM scheduler queues",
			Targets:     []stats.StallCause{stats.StallDRAMQueue},
			Cost:        0.5,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.DRAM.SchedQueue *= 4
				return cfg, sp
			},
		},
		{
			Name:        "coalesce",
			Description: "software: restructure accesses to coalesce fully",
			Targets:     []stats.StallCause{stats.StallIcnt, stats.StallL2Queue, stats.StallDRAMQueue},
			Cost:        0.25,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				return cfg, Coalesced(sp)
			},
		},
	}
}

// Coalesced returns the fully coalesced variant of a spec: every warp
// memory access touches exactly one cache line (top level and in every
// phase), modelling the kernel after a perfect access-restructuring
// pass. The variant is renamed "<name>-coalesced" so its measurements
// content-address separately from the original's.
func Coalesced(sp workload.Spec) workload.Spec {
	out := sp
	out.SpecName = sp.SpecName + "-coalesced"
	out.LinesPerAccess = 1
	if len(sp.Phases) > 0 {
		out.Phases = make([]workload.PhaseSpec, len(sp.Phases))
		for i, p := range sp.Phases {
			p.LinesPerAccess = 1
			out.Phases[i] = p
		}
	}
	return out
}

// AdviseGrid expands the workloads into the advisor's measurement
// grid: for each spec, the baseline measurement
// followed by one job per Perturbations() entry, in that order. The
// layout is part of the sweep's byte-identity contract —
// BuildAdviseReport reads results in exactly this stride.
func AdviseGrid(base config.Config, specs []workload.Spec) ([]GridJob, error) {
	perts := Perturbations()
	return variantGrid("advise", base, specs, len(perts), func(j int, cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
		return perts[j].Apply(cfg, sp)
	})
}

// AdviseOutcome is one measured intervention in a workload's report
// row, ranked by Score.
type AdviseOutcome struct {
	// Name and Description identify the Perturbation.
	Name        string `json:"name"`
	Description string `json:"description"`
	// Targeted reports whether the intervention's target causes include
	// the workload's dominant stall cause.
	Targeted bool `json:"targeted"`
	// Cost is the intervention's relative hardware cost; IPC the
	// measured IPC under it; DeltaIPC the recovery over baseline; Score
	// the ranking key DeltaIPC/Cost.
	Cost     float64 `json:"cost"`
	IPC      float64 `json:"ipc"`
	DeltaIPC float64 `json:"delta_ipc"`
	Score    float64 `json:"score"`
}

// AdviseRow is one workload's advisor verdict: its baseline, what it
// is bound by, and every intervention ranked by IPC recovered per unit
// of cost.
type AdviseRow struct {
	Workload    string  `json:"workload"`
	BaselineIPC float64 `json:"baseline_ipc"`
	// Dominant is the baseline's dominant stall cause label — what the
	// workload is bound by, per the PR-4 attribution.
	Dominant      string          `json:"dominant"`
	Interventions []AdviseOutcome `json:"interventions"`
}

// AdviseReport is the what-if advisor's answer over a set of
// workloads: for each one, which intervention buys back the most IPC
// per unit of added hardware.
type AdviseReport struct {
	Warmup int64       `json:"warmup_cycles"`
	Window int64       `json:"window_cycles"`
	Rows   []AdviseRow `json:"rows"`
}

// BuildAdviseReport assembles the advisor report from already-measured
// grid results laid out as AdviseGrid produces them: for specs[i],
// res[i*(1+P)] is the baseline and the following P entries are the
// perturbations in Perturbations() order. It is the advise sweep
// kind's pure merge half, the same function whether the results were
// computed locally or collected from a fleet, so the two reports are
// byte-identical.
func BuildAdviseReport(specs []workload.Spec, p RunParams, res []sim.Results) (AdviseReport, error) {
	perts := Perturbations()
	rows, err := splitRows("advise", specs, len(perts), res)
	if err != nil {
		return AdviseReport{}, err
	}
	rep := AdviseReport{Warmup: p.WarmupCycles, Window: p.WindowCycles,
		Rows: make([]AdviseRow, len(specs))}
	for i, sp := range specs {
		baseRes := rows[i][0]
		dominant := baseRes.Stalls.Dominant()
		row := AdviseRow{
			Workload:      sp.SpecName,
			BaselineIPC:   baseRes.IPC,
			Dominant:      dominant.String(),
			Interventions: make([]AdviseOutcome, len(perts)),
		}
		for j, pt := range perts {
			r := rows[i][1+j]
			out := AdviseOutcome{
				Name:        pt.Name,
				Description: pt.Description,
				Cost:        pt.Cost,
				IPC:         r.IPC,
				DeltaIPC:    r.IPC - baseRes.IPC,
			}
			out.Score = out.DeltaIPC / pt.Cost
			for _, c := range pt.Targets {
				if c == dominant {
					out.Targeted = true
					break
				}
			}
			row.Interventions[j] = out
		}
		// The ranking is the report's whole point, and it must be
		// fully deterministic: score descending, cheaper first on
		// ties, name as the final total order.
		sort.SliceStable(row.Interventions, func(a, b int) bool {
			ia, ib := row.Interventions[a], row.Interventions[b]
			if ia.Score != ib.Score {
				return ia.Score > ib.Score
			}
			if ia.Cost != ib.Cost {
				return ia.Cost < ib.Cost
			}
			return ia.Name < ib.Name
		})
		rep.Rows[i] = row
	}
	return rep, nil
}

// String renders the advisor's verdict: one section per workload with
// its interventions ranked by IPC recovered per unit of cost.
func (r AdviseReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "what-if advisor — IPC recovered per unit of added hardware (%d-cycle window after %d warm-up)\n",
		r.Window, r.Warmup)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s — baseline IPC %.3f, bound by %s\n", row.Workload, row.BaselineIPC, row.Dominant)
		for i, o := range row.Interventions {
			mark := " "
			if o.Targeted {
				mark = "*"
			}
			fmt.Fprintf(&b, "  %2d. %-8s %s IPC %7.3f  dIPC %+7.3f  cost %5.2f  score %+7.3f  %s\n",
				i+1, o.Name, mark, o.IPC, o.DeltaIPC, o.Cost, o.Score, o.Description)
		}
	}
	b.WriteString("\n(score = IPC recovered / cost, cost in rough relative silicon units;\n" +
		" * = the intervention targets the workload's dominant stall cause)\n")
	return b.String()
}

// CSV renders the advisor report as comma-separated values, one line
// per (workload, intervention) in ranked order.
func (r AdviseReport) CSV() string {
	var b strings.Builder
	b.WriteString("workload,baseline_ipc,bound,rank,intervention,targeted,ipc,delta_ipc,cost,score\n")
	for _, row := range r.Rows {
		for i, o := range row.Interventions {
			fmt.Fprintf(&b, "%s,%.4f,%s,%d,%s,%t,%.4f,%.4f,%.2f,%.4f\n",
				row.Workload, row.BaselineIPC, row.Dominant, i+1,
				o.Name, o.Targeted, o.IPC, o.DeltaIPC, o.Cost, o.Score)
		}
	}
	return b.String()
}
