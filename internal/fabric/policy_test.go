package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/serve"
)

// TestCoordinatorPolicyNameErrors mirrors the workers' strict-decode
// contract at the fleet's front door: an unknown policy name in an
// inline config is a 400 from the coordinator — before any job is
// dispatched — naming the seam and listing the registered policies.
func TestCoordinatorPolicyNameErrors(t *testing.T) {
	_, url := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{url}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	cases := map[string]struct {
		set        func(*config.PolicyConfig)
		wantPhrase string
		registered []string
	}{
		"issue": {
			set:        func(p *config.PolicyConfig) { p.Issue = "hyper-aggressive" },
			wantPhrase: "unknown issue policy",
			registered: policy.IssueNames(),
		},
		"l1_fill": {
			set:        func(p *config.PolicyConfig) { p.L1Fill = "sometimes" },
			wantPhrase: "unknown L1 fill policy",
			registered: policy.FillNames(),
		},
		"l2_insert": {
			set:        func(p *config.PolicyConfig) { p.L2Insert = "lru-ish" },
			wantPhrase: "unknown L2 insertion policy",
			registered: policy.L2Names(),
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := config.GTX480Baseline()
			tc.set(&cfg.Policy)
			raw, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			body := `{"workloads":["sc"],"warmup_cycles":100,"window_cycles":300,"config":` + string(raw) + `}`
			code, resp := post(t, cts.URL, "/v1/sweep/mitigation", body, nil)
			if code != http.StatusBadRequest || !strings.Contains(resp, tc.wantPhrase) {
				t.Fatalf("code=%d body=%s", code, resp)
			}
			for _, reg := range tc.registered {
				if !strings.Contains(resp, reg) {
					t.Errorf("error does not list registered policy %q: %s", reg, resp)
				}
			}
			var envlp map[string]string
			if err := json.Unmarshal([]byte(resp), &envlp); err != nil || envlp["error"] == "" {
				t.Errorf("error response is not the documented envelope: %s", resp)
			}
		})
	}
}

// TestFleetMitigationMatchesSingleNode: per-job policy configs.
func TestFleetMitigationMatchesSingleNode(t *testing.T) {
	checkFleetMatchesSingleNode(t, "mitigation", "sc", "kmeans")
}
