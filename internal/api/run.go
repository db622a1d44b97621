package api

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/workload"
)

// RunJob is a resolved /v1/run request: one spec measured on one
// config under one methodology, plus its content address. ResolveRun
// derives it once, so the serving layer only caches and answers.
type RunJob struct {
	Spec   workload.Spec
	Config config.Config
	Params exp.RunParams
	// Key is the job's content address (resultcache.JobKey).
	Key string
}

// ResolveRun is the one single-job resolver: it turns a /v1/run
// request into a runnable job against a base config and the caller's
// caps (see ResolveMethodology). Every error it returns is the
// client's — a workloads list, both or neither of workload and spec,
// an unknown name or a bad spec, a bad methodology, a job the
// simulator cannot run — so gpusimd answers it with 400 before
// anything simulates.
func ResolveRun(req JobRequest, base config.Config, maxParallel int, maxWindow int64) (*RunJob, error) {
	if len(req.Workloads) > 0 {
		// The list form belongs to the sweep endpoints; dropping it
		// silently would run something other than what was asked for.
		return nil, fmt.Errorf("/v1/run takes one workload (or spec); a workloads list goes to /v1/sweep/{%s}",
			strings.Join(KindNames(), "|"))
	}
	var spec workload.Spec
	var err error
	switch {
	case req.Workload != "" && len(req.Spec) > 0:
		err = fmt.Errorf("workload and spec are mutually exclusive")
	case req.Workload != "":
		spec, err = workload.SpecByName(req.Workload)
	case len(req.Spec) > 0:
		spec, err = workload.ParseSpec(req.Spec)
	default:
		err = fmt.Errorf("request needs a workload name or an inline spec")
	}
	if err != nil {
		return nil, err
	}
	cfg, p, err := ResolveMethodology(base, req, maxParallel, maxWindow)
	if err != nil {
		return nil, err
	}
	if err := CheckJob(cfg, spec); err != nil {
		return nil, err
	}
	key, err := resultcache.JobKey(cfg, spec, p.WarmupCycles, p.WindowCycles)
	if err != nil {
		return nil, err
	}
	return &RunJob{Spec: spec, Config: cfg, Params: p, Key: key}, nil
}

// Measure simulates the job in this process and returns the
// exp.EncodeResults bytes /v1/run caches under Key.
func (j *RunJob) Measure() ([]byte, error) {
	_, enc, err := execute(j.Config, j.Spec, j.Params)
	return enc, err
}

// Envelope wraps a measurement's encoded results in the /v1/run
// response envelope.
func (j *RunJob) Envelope(results []byte) Envelope {
	return Envelope{
		Key: j.Key, Kind: "measure", Workload: j.Spec.SpecName,
		WarmupCycles: j.Params.WarmupCycles, WindowCycles: j.Params.WindowCycles,
		Results: results,
	}
}
