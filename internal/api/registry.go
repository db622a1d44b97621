package api

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Job is one grid entry of a sweep: the exact (config, spec) pair to
// measure. Some kinds measure every spec on the request's resolved
// config; others (advise, mitigation, latency, designspace) vary the
// architecture per job, which is why the grid carries configs rather
// than assuming one. It is the exp grid halves' own type, so their
// grids need no conversion.
type Job = exp.GridJob

// GridResult is one grid entry's measurement, however it was obtained
// — computed locally, served from a cache, or collected from a fleet
// worker. Encoded carries the exact exp.EncodeResults bytes (the
// run-batch report embeds them verbatim); Results the decoded
// snapshot the merge halves consume.
type GridResult struct {
	// Key is the entry's content address (resultcache.JobKey of its
	// config, spec and methodology).
	Key     string
	Encoded []byte
	Results sim.Results
}

// Kind is one registered sweep: everything a serving surface needs to
// validate a request, expand it into independent measurement jobs,
// and merge ordered results into the deterministic report — the
// single definition consumed by internal/serve (POST /v1/sweep/{kind}),
// the internal/fabric coordinator (sharded + SSE) and cmd/sweep.
// Adding a sweep to every surface at once is adding one entry to the
// registry.
type Kind struct {
	// Name is the kind's wire name — the {kind} path segment and the
	// resultcache.SweepKey kind string.
	Name string
	// ResponseKind is the merged envelope's Kind field ("sweep-<name>"
	// for report sweeps, "run-batch" for the plain measurement batch).
	ResponseKind string
	// Description is a one-line summary for documentation and
	// discovery listings.
	Description string
	// Defaults returns the workload scope a request with an empty
	// workloads list gets. A nil Defaults means the kind requires an
	// explicit list.
	Defaults func() []string
	// Grid expands the resolved (config, specs) into the sweep's
	// measurement grid. The order is part of the sweep's byte-identity
	// contract: Report reads results at exactly these indices.
	Grid func(cfg config.Config, specs []workload.Spec) ([]Job, error)
	// Report is the pure merge half: it assembles the typed report
	// (an exp report, or the run batch's []Envelope) from ordered grid
	// results. res[i] belongs to grid[i]. Sweep.Execute is its only
	// caller, whether the results were simulated locally or collected
	// from a fleet, which is what makes every surface's payload bytes
	// identical.
	Report func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error)
}

// Scope resolves a sweep request's workload scope — the names echoed
// in the response envelope and the specs the grid expands. A sweep
// takes a workloads list, never the single workload/spec form of
// /v1/run; an empty list falls back to the kind's Defaults, and a
// kind without defaults (run) requires explicit names. Resolve calls
// it for every surface, so they accept exactly the same scopes.
func (k Kind) Scope(req JobRequest) ([]string, []workload.Spec, error) {
	if req.Workload != "" || len(req.Spec) > 0 {
		return nil, nil, fmt.Errorf("sweeps take a workloads list, not workload/spec")
	}
	names := req.Workloads
	if len(names) == 0 {
		if k.Defaults == nil {
			return nil, nil, fmt.Errorf("a %s batch needs an explicit workloads list", k.Name)
		}
		names = k.Defaults()
	}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.SpecByName(n)
		if err != nil {
			return nil, nil, err
		}
		specs[i] = sp
	}
	return names, specs, nil
}

// decoded projects grid results onto the []sim.Results layout the exp
// merge halves take.
func decoded(res []GridResult) []sim.Results {
	rs := make([]sim.Results, len(res))
	for i, r := range res {
		rs[i] = r.Results
	}
	return rs
}

// specJobs is the one-job-per-spec grid shared by the kinds that
// measure each workload once on the request's config.
func specJobs(cfg config.Config, specs []workload.Spec) ([]Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweep needs at least one workload")
	}
	grid := make([]Job, len(specs))
	for i, sp := range specs {
		grid[i] = Job{Config: cfg, Spec: sp}
	}
	return grid, nil
}

// kinds is the registry, in documentation order. It is built by a
// function (not a package var) so every caller gets fresh closures
// and nothing can mutate the shared definition.
func kinds() []Kind {
	return []Kind{
		{
			Name:         "latency",
			ResponseKind: "sweep-latency",
			Description:  "Fig. 1 + §II: IPC vs fixed L1-miss latency 0..800, normalized to the baseline (exp.Fig1Report)",
			Defaults:     suiteNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				return exp.Fig1Grid(cfg, specs, exp.DefaultLatencies())
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildFig1Report(specs, exp.DefaultLatencies(), decoded(res))
			},
		},
		{
			Name:         "occupancy",
			ResponseKind: "sweep-occupancy",
			Description:  "§III: share of usage lifetime the L2 access / DRAM scheduler queues are full (exp.OccupancyReport)",
			Defaults:     suiteNames,
			Grid:         specJobs,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildOccupancyReport(specs, decoded(res)), nil
			},
		},
		{
			Name:         "designspace",
			ResponseKind: "sweep-designspace",
			Description:  "Table I / §IV: speedup of the five paper scaling sets over the baseline (exp.DesignSpaceResult)",
			Defaults:     suiteNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				return exp.DesignSpaceGrid(cfg, specs, paperSets())
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildDesignSpaceReport(specs, paperSets(), decoded(res))
			},
		},
		{
			Name:         "bottleneck",
			ResponseKind: "sweep-bottleneck",
			Description:  "per-workload stall-cycle attribution (exp.BottleneckReport)",
			Defaults:     suiteAndScenarioNames,
			Grid:         specJobs,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				wls := make([]workload.Workload, len(specs))
				for i, sp := range specs {
					wls[i] = sp
				}
				return exp.BuildBottleneckReport(cfg, wls, p, decoded(res)), nil
			},
		},
		{
			Name:         "scenarios",
			ResponseKind: "sweep-scenarios",
			Description:  "multi-phase scenarios vs their fixed-mix controls (exp.ScenarioReport)",
			Defaults:     scenarioNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				pairs, err := exp.ScenarioGrid(specs)
				if err != nil {
					return nil, err
				}
				grid := make([]Job, len(pairs))
				for i, sp := range pairs {
					grid[i] = Job{Config: cfg, Spec: sp}
				}
				return grid, nil
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildScenarioReport(specs, decoded(res)), nil
			},
		},
		{
			Name:         "advise",
			ResponseKind: "sweep-advise",
			Description:  "what-if advisor: interventions ranked by IPC recovered per unit cost (exp.AdviseReport)",
			Defaults:     suiteAndScenarioNames,
			Grid:         exp.AdviseGrid,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildAdviseReport(specs, p, decoded(res))
			},
		},
		{
			Name:         "mitigation",
			ResponseKind: "sweep-mitigation",
			Description:  "mitigation policies: scenario × policy grid of the internal/policy seams (exp.MitigationReport)",
			Defaults:     scenarioNames,
			Grid:         exp.MitigationGrid,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildMitigationReport(specs, p, decoded(res))
			},
		},
		{
			Name:         "run",
			ResponseKind: "run-batch",
			Description:  "plain measurement batch: the ordered per-workload run envelopes",
			Defaults:     nil, // a run batch needs an explicit workloads list
			Grid:         specJobs,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				envs := make([]Envelope, len(grid))
				for i := range grid {
					envs[i] = Envelope{
						Key: res[i].Key, Kind: "measure",
						Workload:     grid[i].Spec.SpecName,
						WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
						Results: res[i].Encoded,
					}
				}
				return envs, nil
			},
		},
	}
}

// Kinds returns every registered sweep kind, in documentation order.
func Kinds() []Kind { return kinds() }

// KindNames lists the registered kind names in registry order — the
// valid {kind} path segments, also embedded in error messages so the
// hints stay truthful as kinds are added.
func KindNames() []string {
	ks := kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return names
}

// KindByName resolves a wire name to its registry entry; the error
// lists the valid names.
func KindByName(name string) (Kind, error) {
	for _, k := range kinds() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kind{}, fmt.Errorf("unknown sweep kind %q (want %s)", name, strings.Join(KindNames(), ", "))
}

// suiteNames is the paper's Fig. 1 benchmark suite, the default scope
// of the paper-artifact kinds (latency, occupancy, designspace).
func suiteNames() []string {
	suite := workload.Suite()
	names := make([]string, len(suite))
	for i, wl := range suite {
		names[i] = wl.Name()
	}
	return names
}

// paperSets is the designspace kind's axis: the five Table I scaling
// sets §IV evaluates, in presentation order (the baseline is each
// workload's implicit first job).
func paperSets() []config.ScalingSet {
	return append([]config.ScalingSet(nil), config.AllScalingSets[1:]...)
}

// suiteAndScenarioNames is the suite-plus-scenarios default scope
// shared by the bottleneck and advise kinds, mirroring
// exp.DefaultBottleneckWorkloads as names.
func suiteAndScenarioNames() []string {
	wls := exp.DefaultBottleneckWorkloads()
	names := make([]string, len(wls))
	for i, wl := range wls {
		names[i] = wl.Name()
	}
	return names
}

// scenarioNames lists the built-in multi-phase scenarios.
func scenarioNames() []string {
	ss := workload.Scenarios()
	names := make([]string, len(ss))
	for i, sp := range ss {
		names[i] = sp.SpecName
	}
	return names
}
