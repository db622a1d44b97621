package api

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/workload"
)

func testSpecs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.SpecByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	return specs
}

// TestKindRegistry: the registry is the single source of truth — every
// entry is fully populated, names resolve, and the unknown-kind error
// lists exactly the registered names.
func TestKindRegistry(t *testing.T) {
	wantNames := []string{"latency", "occupancy", "designspace", "bottleneck", "scenarios", "advise", "mitigation", "run"}
	names := KindNames()
	if len(names) != len(wantNames) {
		t.Fatalf("KindNames() = %v, want %v", names, wantNames)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("KindNames() = %v, want %v", names, wantNames)
		}
	}
	for _, k := range Kinds() {
		if k.Name == "" || k.ResponseKind == "" || k.Description == "" {
			t.Errorf("kind %+v has empty metadata", k)
		}
		if k.Grid == nil || k.Report == nil {
			t.Errorf("kind %s is missing a Grid or Report half", k.Name)
		}
		got, err := KindByName(k.Name)
		if err != nil || got.Name != k.Name || got.ResponseKind != k.ResponseKind {
			t.Errorf("KindByName(%q) = %+v, %v", k.Name, got, err)
		}
	}
	_, err := KindByName("nope")
	if err == nil {
		t.Fatal("KindByName accepted an unknown kind")
	}
	for _, n := range wantNames {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-kind error %q does not list %q", err, n)
		}
	}
}

// TestKindGrids: each kind's Grid half produces the documented layout
// and rejects an empty workload set.
func TestKindGrids(t *testing.T) {
	cfg := config.GTX480Baseline()
	stride := 1 + len(exp.Perturbations())
	mitStride := 1 + len(exp.Mitigations())
	cases := map[string]struct {
		specs []string
		want  int
	}{
		"latency":     {[]string{"sc", "kmeans"}, 2 * (1 + len(exp.DefaultLatencies()))},
		"occupancy":   {[]string{"sc", "kmeans"}, 2},
		"designspace": {[]string{"sc", "kmeans"}, 2 * 6}, // baseline + the five paper sets
		"bottleneck":  {[]string{"sc", "kmeans"}, 2},
		"scenarios":   {[]string{"kmeans", "bfs"}, 4}, // scenario + flattened control each
		"advise":      {[]string{"sc", "kmeans"}, 2 * stride},
		"mitigation":  {[]string{"sc", "kmeans"}, 2 * mitStride},
		"run":         {[]string{"sc", "kmeans"}, 2},
	}
	for name, tc := range cases {
		k, err := KindByName(name)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := k.Grid(cfg, testSpecs(t, tc.specs...))
		if err != nil {
			t.Errorf("%s: grid: %v", name, err)
			continue
		}
		if len(grid) != tc.want {
			t.Errorf("%s: grid has %d jobs, want %d", name, len(grid), tc.want)
		}
		if _, err := k.Grid(cfg, nil); err == nil {
			t.Errorf("%s: empty workload set accepted", name)
		}
		if k.Defaults != nil && len(k.Defaults()) == 0 {
			t.Errorf("%s: Defaults() returned an empty scope", name)
		}
	}

	// The latency kind's first job per workload is the real-hierarchy
	// baseline, then the axis in order; a config that is already
	// fixed-latency has no baseline to normalize to.
	k, err := KindByName("latency")
	if err != nil {
		t.Fatal(err)
	}
	grid, err := k.Grid(cfg, testSpecs(t, "sc"))
	if err != nil {
		t.Fatal(err)
	}
	if grid[0].Config != cfg || grid[2].Config.FixedLatency != (config.FixedLatencyConfig{Enabled: true, Cycles: 50}) {
		t.Errorf("latency grid layout: %+v, %+v", grid[0].Config.FixedLatency, grid[2].Config.FixedLatency)
	}
	fixed := cfg
	fixed.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 100}
	if _, err := k.Grid(fixed, testSpecs(t, "sc")); err == nil || !strings.Contains(err.Error(), "real memory hierarchy") {
		t.Errorf("latency grid on a fixed-latency config: %v", err)
	}
}

// TestKindScope: the one sweep-scope resolver rejects the /v1/run
// request form, falls back to the kind's defaults, requires explicit
// names for a kind without defaults, and resolves names to specs in
// request order.
func TestKindScope(t *testing.T) {
	for _, k := range Kinds() {
		if _, _, err := k.Scope(JobRequest{Workload: "sc"}); err == nil || !strings.Contains(err.Error(), "workloads list") {
			t.Errorf("%s: workload form: %v", k.Name, err)
		}
		if _, _, err := k.Scope(JobRequest{Spec: json.RawMessage(`{}`)}); err == nil || !strings.Contains(err.Error(), "workloads list") {
			t.Errorf("%s: spec form: %v", k.Name, err)
		}
		if _, _, err := k.Scope(JobRequest{Workloads: []string{"sc", "nosuch"}}); err == nil || !strings.Contains(err.Error(), "nosuch") {
			t.Errorf("%s: unknown name: %v", k.Name, err)
		}
		names, specs, err := k.Scope(JobRequest{})
		if k.Defaults == nil {
			if err == nil || !strings.Contains(err.Error(), "explicit workloads list") {
				t.Errorf("%s: empty scope without defaults: %v", k.Name, err)
			}
			continue
		}
		if err != nil || len(names) == 0 || len(specs) != len(names) || specs[0].SpecName != names[0] {
			t.Errorf("%s: default scope %v (%d specs), %v", k.Name, names, len(specs), err)
		}
	}
	k, err := KindByName("run")
	if err != nil {
		t.Fatal(err)
	}
	names, specs, err := k.Scope(JobRequest{Workloads: []string{"nn", "sc"}})
	if err != nil || len(specs) != 2 || specs[0].SpecName != "nn" || specs[1].SpecName != "sc" || names[1] != "sc" {
		t.Errorf("explicit scope: %v %v %v", names, specs, err)
	}
}

// TestResolveMethodologyInlineConfig: an inline request config
// replaces the base entirely, is strictly decoded, and the
// scale/seed transforms apply on top of it.
func TestResolveMethodologyInlineConfig(t *testing.T) {
	base := config.GTX480Baseline()
	perturbed := base
	perturbed.L1.Sets *= 2
	raw, err := json.Marshal(perturbed)
	if err != nil {
		t.Fatal(err)
	}

	seed := uint64(7)
	cfg, _, err := ResolveMethodology(base, JobRequest{Config: raw, Seed: &seed}, 4, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.Sets != perturbed.L1.Sets {
		t.Errorf("inline config not applied: L1.Sets = %d", cfg.L1.Sets)
	}
	if cfg.Seed != 7 {
		t.Errorf("seed transform did not apply on top of the inline config: %d", cfg.Seed)
	}

	for name, tc := range map[string]struct{ raw, want string }{
		"unknown field": {`{"seed":1,"zap":true}`, "unknown field"},
		"trailing data": {string(raw) + `{}`, "trailing data"},
		"invalid":       {`{"seed":1}`, ""}, // fails Validate; any error is fine
	} {
		_, _, err := ResolveMethodology(base, JobRequest{Config: json.RawMessage(tc.raw)}, 4, 1_000_000)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestResolveMethodologyWindowCap: the warmup+window cap holds at its
// edges and for values whose sum overflows int64 — a wrapped sum must
// not admit a job that never ends.
func TestResolveMethodologyWindowCap(t *testing.T) {
	base := config.GTX480Baseline()
	cases := []struct {
		warmup, window, cap int64
		ok                  bool
	}{
		{999, 1, 1000, true},
		{1000, 1, 1000, false},
		{0, 1001, 1000, false},
		{math.MaxInt64, 1, 10_000_000, false},
		{1, math.MaxInt64, 10_000_000, false},
		{math.MaxInt64, math.MaxInt64, 10_000_000, false},
		{math.MaxInt64 - 1, 1, math.MaxInt64, true},
		{math.MaxInt64, 1, math.MaxInt64, false},
	}
	for _, tc := range cases {
		_, p, err := ResolveMethodology(base, JobRequest{Warmup: &tc.warmup, Window: &tc.window}, 1, tc.cap)
		if tc.ok && err != nil {
			t.Errorf("warmup %d + window %d under cap %d rejected: %v", tc.warmup, tc.window, tc.cap, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("warmup %d + window %d over cap %d accepted as %+v", tc.warmup, tc.window, tc.cap, p)
			} else if !strings.Contains(err.Error(), "exceeds the server cap") {
				t.Errorf("warmup %d + window %d: unexpected error %v", tc.warmup, tc.window, err)
			}
		}
	}
}

// TestErrorEnvelope: every daemon error is the one documented
// {"error": ...} JSON document with a trailing newline, and shed load
// (503) carries Retry-After.
func TestErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, http.StatusBadRequest, fmt.Errorf("boom"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d", rec.Code)
	}
	if got := rec.Body.String(); got != "{\"error\":\"boom\"}\n" {
		t.Errorf("error body = %q", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Error("400 carries Retry-After")
	}

	rec = httptest.NewRecorder()
	Error(rec, http.StatusServiceUnavailable, fmt.Errorf("draining"))
	if rec.Header().Get("Retry-After") != "1" {
		t.Error("503 missing Retry-After: 1")
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]int{"n": 1})
	if got := rec.Body.String(); got != "{\"n\":1}\n" {
		t.Errorf("WriteJSON body = %q", got)
	}
}

// TestResolveAndExecute: the resolver expands the grid once and keys
// the sweep as resultcache.SweepKey does; the executor calls measure
// exactly once per grid index and merges the same report api.Run
// produces; an unrunnable job is rejected before anything measures.
func TestResolveAndExecute(t *testing.T) {
	warmup, window := int64(100), int64(300)
	req := JobRequest{Workloads: []string{"sc", "kmeans"}, Warmup: &warmup, Window: &window}
	base := config.GTX480Baseline()
	sw, err := Resolve("bottleneck", req, nil, base, 2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	key, err := resultcache.SweepKey("bottleneck", base, sw.Specs, warmup, window)
	if err != nil || sw.Key != key || len(sw.Grid) != 2 || sw.Specs[1].SpecName != "kmeans" {
		t.Fatalf("resolved sweep: key %q (want %q, %v), grid %d", sw.Key, key, err, len(sw.Grid))
	}

	var mu sync.Mutex
	calls := make([]int, len(sw.Grid))
	rep, err := sw.Execute(context.Background(), func(ctx context.Context, sw *Sweep, i int) (GridResult, error) {
		mu.Lock()
		calls[i]++
		mu.Unlock()
		return Local(ctx, sw, i)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("grid index %d measured %d times", i, n)
		}
	}
	k, _ := KindByName("bottleneck")
	want, err := Run(context.Background(), k, base, sw.Specs, sw.Params)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("Execute report differs from Run:\n got: %s\nwant: %s", a, b)
	}

	narrow := base
	narrow.Core.MaxWarpsPerSM = 4
	if _, err := Resolve("advise", req, nil, narrow, 2, 1_000_000); err == nil || !strings.Contains(err.Error(), "wants 44 warps/SM, config allows 4") {
		t.Errorf("warp overflow: %v", err)
	}
}
