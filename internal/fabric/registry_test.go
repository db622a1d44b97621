package fabric

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestCoordinatorKindErrors: the coordinator's handler validates
// against the same registry as the workers — unknown kinds and
// malformed bodies are 400s with the shared {"error": ...} envelope,
// even when the client asked for SSE (the reject happens before the
// stream commits its 200).
func TestCoordinatorKindErrors(t *testing.T) {
	_, url := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{url}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	sse := http.Header{"Accept": []string{"text/event-stream"}}
	for name, hdr := range map[string]http.Header{"plain": nil, "sse": sse} {
		code, body := post(t, cts.URL, "/v1/sweep/nope", `{}`, hdr)
		if code != http.StatusBadRequest || !strings.Contains(body, "unknown sweep kind") {
			t.Errorf("%s: unknown kind: code=%d body=%s", name, code, body)
		}
		for _, n := range api.KindNames() {
			if !strings.Contains(body, n) {
				t.Errorf("%s: unknown-kind error does not list %q: %s", name, n, body)
			}
		}
		var envlp map[string]string
		if err := json.Unmarshal([]byte(body), &envlp); err != nil || envlp["error"] == "" {
			t.Errorf("%s: error response is not the documented envelope: %s", name, body)
		}
	}
	for _, k := range api.Kinds() {
		code, body := post(t, cts.URL, "/v1/sweep/"+k.Name, `{bad json`, nil)
		if code != http.StatusBadRequest || !strings.Contains(body, "parse request") {
			t.Errorf("%s: malformed body: code=%d body=%s", k.Name, code, body)
		}
	}
	code, body := post(t, cts.URL, "/v1/sweep/run", `{}`, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "explicit workloads list") {
		t.Errorf("empty run batch: code=%d body=%s", code, body)
	}
	code, body = post(t, cts.URL, "/v1/sweep/latency", `{"workloads":["sc"],"fixed_latency":100}`, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "real memory hierarchy") {
		t.Errorf("latency sweep on a fixed-latency config: code=%d body=%s", code, body)
	}

	// A config whose SMs cannot hold a workload's warps is rejected by
	// the resolver — the same 400 text /v1/run gives — before any job
	// reaches a worker, on the SSE path too.
	narrow := config.GTX480Baseline()
	narrow.Core.MaxWarpsPerSM = 4
	raw, err := json.Marshal(narrow)
	if err != nil {
		t.Fatal(err)
	}
	for name, hdr := range map[string]http.Header{"plain": nil, "sse": sse} {
		code, body := post(t, cts.URL, "/v1/sweep/bottleneck", `{"workloads":["sc"],"config":`+string(raw)+`}`, hdr)
		if code != http.StatusBadRequest || !strings.Contains(body, "wants 44 warps/SM, config allows 4") {
			t.Errorf("%s: warp overflow: code=%d body=%s", name, code, body)
		}
	}
}

// TestFleetInlineConfigMatchesSingleNode: a sweep request carrying its
// own architecture (differing from the workers' base) is shipped with
// that config, so the fleet answers exactly what a single node does
// instead of resolving against the workers' base.
func TestFleetInlineConfigMatchesSingleNode(t *testing.T) {
	_, single := newWorker(t, serve.Options{})
	_, urls := newFleet(t, 2, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	inline := config.GTX480Baseline()
	inline.L1.Sets *= 2
	raw, err := json.Marshal(inline)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"bottleneck", "advise"} {
		body := `{"workloads":["sc","kmeans"],"config":` + string(raw) + `,"seed":7,"warmup_cycles":200,"window_cycles":500}`
		code, want := post(t, single, "/v1/sweep/"+kind, body, nil)
		if code != http.StatusOK {
			t.Fatalf("%s single node: %d %s", kind, code, want)
		}
		code, got := post(t, cts.URL, "/v1/sweep/"+kind, body, nil)
		if code != http.StatusOK {
			t.Fatalf("%s fleet: %d %s", kind, code, got)
		}
		if got != want {
			t.Errorf("%s: fleet-merged inline-config sweep differs from single node:\n got: %s\nwant: %s", kind, got, want)
		}
	}
}

// checkFleetMatchesSingleNode is a kind's fleet acceptance contract:
// the fleet-merged sweep — per-job configs shipped inline to the
// workers whenever the grid varies the architecture — is
// byte-identical to a single node's /v1/sweep/{kind} body, survives
// losing a worker mid-sweep, and its report payload is exactly what
// the registry's local executor api.Run marshals (sweep <kind> -json
// output).
func checkFleetMatchesSingleNode(t *testing.T, kind string, names ...string) {
	t.Helper()
	_, single := newWorker(t, serve.Options{})

	dying, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyingTS := httptest.NewServer(abortAfter(1, dying.Handler()))
	defer dyingTS.Close()
	_, urlA := newWorker(t, serve.Options{})
	_, urlB := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{urlA, urlB, dyingTS.URL}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	list, err := json.Marshal(names)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"workloads":` + string(list) + `,"warmup_cycles":200,"window_cycles":500}`
	code, want := post(t, single, "/v1/sweep/"+kind, body, nil)
	if code != http.StatusOK {
		t.Fatalf("single node: %d %s", code, want)
	}
	code, got := post(t, cts.URL, "/v1/sweep/"+kind, body, nil)
	if code != http.StatusOK {
		t.Fatalf("fleet: %d %s", code, got)
	}
	if got != want {
		t.Errorf("fleet-merged %s differs from single node:\n got: %s\nwant: %s", kind, got, want)
	}

	var env api.Envelope
	if err := json.Unmarshal([]byte(got), &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "sweep-"+kind || !resultcache.ValidKey(env.Key) {
		t.Errorf("%s envelope kind=%q key=%q", kind, env.Kind, env.Key)
	}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		if specs[i], err = workload.SpecByName(n); err != nil {
			t.Fatal(err)
		}
	}
	k, err := api.KindByName(kind)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := api.Run(context.Background(), k, config.GTX480Baseline(), specs,
		exp.RunParams{WarmupCycles: 200, WindowCycles: 500, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Report) != string(local) {
		t.Errorf("fleet %s report differs from api.Run:\n got: %s\nwant: %s", kind, env.Report, local)
	}
}

// TestFleetAdviseMatchesSingleNode: perturbed per-job configs and
// specs.
func TestFleetAdviseMatchesSingleNode(t *testing.T) {
	checkFleetMatchesSingleNode(t, "advise", "sc", "kmeans")
}

// TestFleetLatencyMatchesSingleNode: per-job fixed-latency configs
// around one real-hierarchy baseline per workload.
func TestFleetLatencyMatchesSingleNode(t *testing.T) {
	checkFleetMatchesSingleNode(t, "latency", "sc", "kmeans")
}

// TestFleetDesignSpaceMatchesSingleNode: per-job Table I scaled
// configs.
func TestFleetDesignSpaceMatchesSingleNode(t *testing.T) {
	checkFleetMatchesSingleNode(t, "designspace", "sc", "kmeans")
}

// TestCoordinatorHealthzVersions: the coordinator's /healthz carries
// the same api/codeversion fields as the workers', so one probe per
// daemon suffices to audit a fleet for version skew.
func TestCoordinatorHealthzVersions(t *testing.T) {
	_, url := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{url}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	resp, err := http.Get(cts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h struct {
		Status      string `json:"status"`
		API         string `json:"api"`
		CodeVersion string `json:"codeversion"`
		Workers     int    `json:"workers"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.API != api.Version || h.CodeVersion != resultcache.CodeVersion || h.Workers != 1 {
		t.Errorf("healthz = %s", data)
	}
}
