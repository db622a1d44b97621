package api

import (
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/workload"
)

// TestResolveRunAgreesWithSweeps: a /v1/run job resolves to the key
// the run sweep's grid entry has for the same workload and
// methodology, whether the workload comes by name or as an inline
// spec — so a single measurement and a sweep share cache entries —
// and Measure's payload decodes under that envelope.
func TestResolveRunAgreesWithSweeps(t *testing.T) {
	base := config.GTX480Baseline()
	warmup, window := int64(100), int64(300)
	sp, err := workload.SpecByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	inline, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	byName, err := ResolveRun(JobRequest{Workload: "sc", Warmup: &warmup, Window: &window}, base, 2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	bySpec, err := ResolveRun(JobRequest{Spec: inline, Warmup: &warmup, Window: &window}, base, 2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := Resolve("run", JobRequest{Workloads: []string{"sc"}, Warmup: &warmup, Window: &window}, nil, base, 2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	g := sw.Grid[0]
	gridKey, err := resultcache.JobKey(g.Config, g.Spec, warmup, window)
	if err != nil {
		t.Fatal(err)
	}
	if byName.Key != gridKey || bySpec.Key != gridKey {
		t.Fatalf("keys disagree: by name %s, by spec %s, run sweep grid %s", byName.Key, bySpec.Key, gridKey)
	}

	enc, err := byName.Measure()
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.DecodeResults(enc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != window {
		t.Fatalf("measured %d cycles, want the %d-cycle window", res.Cycles, window)
	}
	env := byName.Envelope(enc)
	if env.Key != gridKey || env.Kind != "measure" || env.Workload != "sc" ||
		env.WarmupCycles != warmup || env.WindowCycles != window {
		t.Fatalf("envelope does not describe the job: %+v", env)
	}
}
