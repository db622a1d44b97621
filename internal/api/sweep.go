package api

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sweep is a resolved sweep request: everything the executor runs and
// the response envelope echoes, derived once by Resolve. The
// single-node server, the fabric coordinator and cmd/sweep all start
// from one, which is what makes their reports and keys agree.
type Sweep struct {
	// Kind is the registry entry; Request the document the sweep was
	// resolved from (a remote measure re-ships its transforms).
	Kind    Kind
	Request JobRequest
	// Specs is the workload scope the grid expands and the envelope
	// echoes by name.
	Specs []workload.Spec
	// Config and Params are the resolved architecture and methodology.
	Config config.Config
	Params exp.RunParams
	// Grid is the kind's measurement grid, every job checked runnable;
	// Key is the sweep's content address (resultcache.SweepKey).
	Grid []Job
	Key  string
}

// Resolve is the one sweep resolver: it turns a kind name and a
// request into a runnable sweep against a base config and the caller's
// caps (see ResolveMethodology). Non-empty specs replace the request's
// workload scope (cmd/sweep -workload-file). Every error it returns is
// the client's — an unknown kind or workload, a bad methodology, a
// grid the kind cannot expand, a job the simulator cannot run — so
// gpusimd and gpusimc answer it with 400 before any simulation starts.
func Resolve(kind string, req JobRequest, specs []workload.Spec, base config.Config, maxParallel int, maxWindow int64) (*Sweep, error) {
	k, err := KindByName(kind)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		if _, specs, err = k.Scope(req); err != nil {
			return nil, err
		}
	}
	cfg, p, err := ResolveMethodology(base, req, maxParallel, maxWindow)
	if err != nil {
		return nil, err
	}
	return resolve(k, req, specs, cfg, p)
}

// specNames lists the specs' names, in order.
func specNames(specs []workload.Spec) []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.SpecName
	}
	return names
}

// resolve is the grid half of the resolver: expand the kind's grid
// once, check that the simulator can run every job, and
// content-address the sweep.
func resolve(k Kind, req JobRequest, specs []workload.Spec, cfg config.Config, p exp.RunParams) (*Sweep, error) {
	grid, err := k.Grid(cfg, specs)
	if err != nil {
		return nil, err
	}
	for _, g := range grid {
		if err := CheckJob(g.Config, g.Spec); err != nil {
			return nil, err
		}
	}
	key, err := resultcache.SweepKey(k.Name, cfg, specs, p.WarmupCycles, p.WindowCycles)
	if err != nil {
		return nil, err
	}
	return &Sweep{
		Kind: k, Request: req, Specs: specs,
		Config: cfg, Params: p,
		Grid: grid, Key: key,
	}, nil
}

// CheckJob reports whether the simulator can run spec on cfg: both
// validate and the config's SMs hold the spec's warps. The message is
// the client-facing text /v1/run and every sweep surface answer with,
// instead of a simulation failing on it mid-sweep.
func CheckJob(cfg config.Config, spec workload.Spec) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Warps > cfg.Core.MaxWarpsPerSM {
		return fmt.Errorf("workload %s wants %d warps/SM, config allows %d", spec.SpecName, spec.Warps, cfg.Core.MaxWarpsPerSM)
	}
	return nil
}

// Measure obtains grid entry i's result for a resolved sweep: Local
// simulates it in this process, the fabric coordinator's measure asks
// a fleet worker. The executor calls it concurrently, once per index.
type Measure func(ctx context.Context, sw *Sweep, i int) (GridResult, error)

// Execute is the one sweep executor: run every grid entry through
// measure on the runner.Map pool — results land at their grid index
// whatever the completion order — and merge them with the kind's pure
// Report half. It is the only caller of Kind.Report, so a report is
// the same bytes however its grid was measured.
func (sw *Sweep) Execute(ctx context.Context, measure Measure) (any, error) {
	res, err := runner.Map(ctx, len(sw.Grid), runner.Options{Parallelism: sw.Params.Parallelism}, func(i int) (GridResult, error) {
		return measure(ctx, sw, i)
	})
	if err != nil {
		return nil, err
	}
	return sw.Kind.Report(sw.Config, sw.Specs, sw.Params, sw.Grid, res)
}

// Local is the in-process Measure: simulate the job with
// runner.Execute and encode the result under its job key.
func Local(ctx context.Context, sw *Sweep, i int) (GridResult, error) {
	g, p := sw.Grid[i], sw.Params
	res, enc, err := execute(g.Config, g.Spec, p)
	if err != nil {
		return GridResult{}, fmt.Errorf("%s: %w", g.Spec.SpecName, err)
	}
	key, err := resultcache.JobKey(g.Config, g.Spec, p.WarmupCycles, p.WindowCycles)
	if err != nil {
		return GridResult{}, err
	}
	return GridResult{Key: key, Encoded: enc, Results: res}, nil
}

// execute is the one in-process measurement behind Local and
// RunJob.Measure: simulate (cfg, spec) with runner.Execute and encode
// the result with exp.EncodeResults.
func execute(cfg config.Config, spec workload.Spec, p exp.RunParams) (sim.Results, []byte, error) {
	res, err := runner.Execute(runner.Job{
		Config: cfg, Workload: spec,
		WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
	})
	if err != nil {
		return sim.Results{}, nil, err
	}
	enc, err := exp.EncodeResults(res)
	return res, enc, err
}

// Envelope wraps a marshaled report in the sweep's response envelope,
// the one body gpusimd and gpusimc answer a sweep with.
func (sw *Sweep) Envelope(report []byte) Envelope {
	return Envelope{
		Key: sw.Key, Kind: sw.Kind.ResponseKind, Workloads: specNames(sw.Specs),
		WarmupCycles: sw.Params.WarmupCycles, WindowCycles: sw.Params.WindowCycles,
		Report: report,
	}
}

// Run executes a sweep kind locally on an already resolved config and
// methodology — the library form behind gpgpumem.RunSweep. It goes
// through the same grid resolution and executor as every other
// surface, with Local.
func Run(ctx context.Context, k Kind, cfg config.Config, specs []workload.Spec, p exp.RunParams) (any, error) {
	sw, err := resolve(k, JobRequest{}, specs, cfg, p)
	if err != nil {
		return nil, err
	}
	return sw.Execute(ctx, Local)
}
