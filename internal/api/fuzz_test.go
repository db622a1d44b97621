package api

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/resultcache"
)

// FuzzResolveSweep feeds a kind name and arbitrary request bytes
// through the daemons' decoder and both resolvers — the path every
// POST /v1/sweep/{kind} and /v1/run body takes before anything
// simulates. The property: it never panics, an accepted sweep yields
// a non-empty grid whose every job the simulator can run (its config
// validates and holds the spec's warps) plus a well-formed sweep key,
// and an accepted run is likewise runnable with a well-formed job key.
//
// Run it with: go test ./internal/api -run '^$' -fuzz FuzzResolveSweep
func FuzzResolveSweep(f *testing.F) {
	base := config.GTX480Baseline()
	inline := base
	inline.L1.Sets *= 2
	narrow := base
	narrow.Core.MaxWarpsPerSM = 4
	for _, c := range []config.Config{inline, narrow} {
		raw := mustJSON(f, c)
		f.Add("bottleneck", `{"workloads":["sc"],"config":`+string(raw)+`}`)
		f.Add("advise", `{"workloads":["sc","kmeans"],"seed":7,"config":`+string(raw)+`}`)
	}
	f.Add("latency", `{"workloads":["sc"],"fixed_latency":100}`)
	f.Add("scenarios", `{"workloads":["kmeans","bfs"],"scale":"l2dram","warmup_cycles":100,"window_cycles":300}`)
	f.Add("run", `{}`)
	f.Add("designspace", `{"workloads":["nn"],"scale":"all","seed":3}`)
	f.Add("nosuch", `{"workloads":["sc"]}`)
	f.Add("run", `{"workload":"kmeans","scale":"l1","warmup_cycles":100,"window_cycles":300}`)
	f.Add("run", `{"spec":{"name":"probe","warps":8,"dep_dist":2,"compute_per_mem":4,"access_pattern":"hotset","working_set_lines":4096,"lines_per_access":2}}`)
	f.Add("run", `{"workload":"sc","fixed_latency":200,"config":`+string(mustJSON(f, narrow))+`}`)

	f.Fuzz(func(t *testing.T, kind, body string) {
		req, err := DecodeJobRequest(httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
		if err != nil {
			return
		}
		if job, err := ResolveRun(req, base, 4, 10_000_000); err == nil {
			if err := job.Config.Validate(); err != nil {
				t.Fatalf("accepted run %q: config invalid: %v", body, err)
			}
			if job.Spec.Warps > job.Config.Core.MaxWarpsPerSM {
				t.Fatalf("accepted run %q wants %d warps/SM, config allows %d",
					body, job.Spec.Warps, job.Config.Core.MaxWarpsPerSM)
			}
			if !resultcache.ValidKey(job.Key) {
				t.Fatalf("accepted run %q with malformed key %q", body, job.Key)
			}
		}
		sw, err := Resolve(kind, req, nil, base, 4, 10_000_000)
		if err != nil {
			return
		}
		if len(sw.Grid) == 0 {
			t.Fatalf("accepted %s request %q with an empty grid", kind, body)
		}
		for i, g := range sw.Grid {
			if err := g.Config.Validate(); err != nil {
				t.Fatalf("accepted %s request %q: job %d config invalid: %v", kind, body, i, err)
			}
			if g.Spec.Warps > g.Config.Core.MaxWarpsPerSM {
				t.Fatalf("accepted %s request %q: job %d wants %d warps/SM, config allows %d",
					kind, body, i, g.Spec.Warps, g.Config.Core.MaxWarpsPerSM)
			}
		}
		if !resultcache.ValidKey(sw.Key) {
			t.Fatalf("accepted %s request %q with malformed key %q", kind, body, sw.Key)
		}
	})
}

func mustJSON(f *testing.F, v any) []byte {
	f.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}
