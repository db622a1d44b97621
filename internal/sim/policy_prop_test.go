package sim_test

// Property tests behind the policy seams (internal/policy): enabling
// any registered combination of issue / L1-fill / L2-insertion policy
// must leave the simulator's core invariants standing. Whatever the
// policies decide, (a) every SM cycle is still charged to exactly one
// stall cause — per-SM breakdowns total the cycle count and the merged
// breakdown totals cycles × SMs — and (b) policy state is per
// instance: two independent GPUs running the same job produce
// reflect.DeepEqual Results. The non-baseline policies must also do
// something: each one has to measurably shift at least one scenario's
// stall breakdown, so a refactor cannot quietly turn them into no-ops.

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// policyCombos enumerates the full cross product of registered policy
// names — every way config.Config.Policy can be populated.
func policyCombos() []config.PolicyConfig {
	var combos []config.PolicyConfig
	for _, is := range policy.IssueNames() {
		for _, fl := range policy.FillNames() {
			for _, l2 := range policy.L2Names() {
				combos = append(combos, config.PolicyConfig{Issue: is, L1Fill: fl, L2Insert: l2})
			}
		}
	}
	return combos
}

// runWindow runs one workload and returns the GPU for inspection,
// after a warm-up/ResetStats/measure sequence that mirrors the
// harnesses.
func runWindow(t *testing.T, cfg config.Config, wl workload.Workload, warmup, window int64) *sim.GPU {
	t.Helper()
	g, err := sim.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(warmup)
	g.ResetStats()
	g.Run(window)
	return g
}

// assertSMClosure checks the per-SM and merged attribution sums.
func assertSMClosure(t *testing.T, g *sim.GPU, where string) {
	t.Helper()
	res := g.Results()
	var slots int64
	for i, sm := range g.SMs() {
		st := sm.Stats()
		bd := sm.StallStack()
		if bd.Total() != st.Cycles {
			t.Errorf("%s: SM%d breakdown totals %d, ran %d cycles", where, i, bd.Total(), st.Cycles)
		}
		slots += st.Cycles
	}
	if got := res.Stalls.Total(); got != slots {
		t.Errorf("%s: merged breakdown totals %d, SMs ran %d issue slots", where, got, slots)
	}
}

// TestPolicyCombosClosureAndEquivalence sweeps the full policy cross
// product over every built-in benchmark and scenario: stall closure
// holds, and a second, independent instance of the same job agrees
// with the first byte for byte (no policy state leaks between GPUs).
func TestPolicyCombosClosureAndEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("policy grid is 12 combos x every workload x 2 instances")
	}
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 6
	cfg.L2.Partitions = 3
	for _, pc := range policyCombos() {
		c := cfg
		c.Policy = pc
		if err := c.Validate(); err != nil {
			t.Fatalf("combo %+v: %v", pc, err)
		}
		name := pc.Issue + "/" + pc.L1Fill + "/" + pc.L2Insert
		t.Run(name, func(t *testing.T) {
			for _, wlName := range workload.Names() {
				wl, err := workload.ByName(wlName)
				if err != nil {
					t.Fatal(err)
				}
				first := runWindow(t, c, wl, 300, 1200)
				assertSMClosure(t, first, wlName)
				second := runWindow(t, c, wl, 300, 1200).Results()
				if res := first.Results(); !reflect.DeepEqual(res, second) {
					t.Errorf("%s: two instances of the same job diverged:\nfirst  %+v\nsecond %+v",
						wlName, res.Stalls, second.Stalls)
				}
			}
		})
	}
}

// TestNonBaselinePoliciesShiftStalls pins the acceptance criterion
// that each shipped mitigation is live: every non-baseline policy must
// change at least one scenario's stall breakdown versus the baseline.
// A policy this test fails is dead code behind a registered name.
func TestNonBaselinePoliciesShiftStalls(t *testing.T) {
	// The full baseline config: l2-pin's victim filtering only bites
	// when the real L2 geometry sees set conflicts.
	cfg := config.GTX480Baseline()
	scenarios := workload.Scenarios()

	base := make([]sim.Results, len(scenarios))
	for i, sp := range scenarios {
		base[i] = runWindow(t, cfg, sp, 2000, 10000).Results()
	}

	cases := []struct {
		name string
		pc   config.PolicyConfig
	}{
		{"throttle", config.PolicyConfig{Issue: policy.IssueThrottle}},
		{"l1-bypass", config.PolicyConfig{L1Fill: policy.FillBypassLowReuse}},
		{"l2-pin", config.PolicyConfig{L2Insert: policy.L2PinHot}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Policy = tc.pc
			shifted := false
			for i, sp := range scenarios {
				res := runWindow(t, c, sp, 2000, 10000).Results()
				if !reflect.DeepEqual(res.Stalls, base[i].Stalls) {
					shifted = true
					break
				}
			}
			if !shifted {
				t.Errorf("policy %s left every scenario's stall breakdown untouched", tc.name)
			}
		})
	}
}
