package exp_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// These tests run the sweep reports end to end through the one local
// executor, api.Run — the path cmd/sweep, gpusimd and
// gpgpumem.RunSweep share. They live in the external test package
// because internal/api imports exp.

func specs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.SpecByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sp
	}
	return out
}

// runKind executes a registered kind through api.Run and returns its
// typed report.
func runKind[R any](t *testing.T, kind string, cfg config.Config, sp []workload.Spec, p exp.RunParams) (R, error) {
	t.Helper()
	k, err := api.KindByName(kind)
	if err != nil {
		t.Fatal(err)
	}
	return runWith[R](k, cfg, sp, p)
}

// runWith executes k through api.Run: a registered kind, or a test's
// pinned-axis wrapper of the same exp Grid/Build pair.
func runWith[R any](k api.Kind, cfg config.Config, sp []workload.Spec, p exp.RunParams) (R, error) {
	rep, err := api.Run(context.Background(), k, cfg, sp, p)
	if err != nil {
		var zero R
		return zero, err
	}
	return rep.(R), nil
}

// mustRun is runKind for sweeps that must succeed.
func mustRun[R any](t *testing.T, kind string, cfg config.Config, sp []workload.Spec, p exp.RunParams) R {
	t.Helper()
	rep, err := runKind[R](t, kind, cfg, sp, p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// goldenParams is the pinned methodology of the golden runs
// (-warmup 2000 -window 5000, seed 1).
func goldenParams(parallelism int) exp.RunParams {
	return exp.RunParams{WarmupCycles: 2000, WindowCycles: 5000, Parallelism: parallelism}
}

// checkGolden pins a kind's rendered table against testdata/<golden>
// at serial and parallel worker counts. Regenerate with
// scripts/regen-golden.sh.
func checkGolden(t *testing.T, kind, golden string, names ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.GTX480Baseline()
	cfg.Seed = 1
	for _, j := range []int{1, 4} {
		rep := mustRun[interface{ String() string }](t, kind, cfg, specs(t, names...), goldenParams(j))
		if got := rep.String(); got != string(want) {
			t.Errorf("j=%d: %s report drifted from %s:\n got:\n%s\nwant:\n%s", j, kind, golden, got, want)
		}
	}
}

// TestGoldenLatencyReport pins the full Fig. 1 axis the latency kind
// serves.
func TestGoldenLatencyReport(t *testing.T) {
	checkGolden(t, "latency", "latency.golden", "sc", "cfd")
}

// TestGoldenOccupancyReport pins the §III table.
func TestGoldenOccupancyReport(t *testing.T) {
	checkGolden(t, "occupancy", "occupancy.golden", "sc", "cfd")
}

// TestGoldenDesignSpaceReport pins Table I and the §IV speedups of the
// five paper scaling sets.
func TestGoldenDesignSpaceReport(t *testing.T) {
	checkGolden(t, "designspace", "designspace.golden", "sc", "cfd")
}

// TestGoldenBottleneckReport pins the stall breakdown of a
// memory-bound streaming benchmark, a compute-leaning one and a
// multi-phase scenario.
func TestGoldenBottleneckReport(t *testing.T) {
	checkGolden(t, "bottleneck", "bottleneck.golden", "sc", "leukocyte", "kmeans")
}

// TestGoldenAdviseReport pins the advisor's verdict: grid layout,
// ranking and formatting.
func TestGoldenAdviseReport(t *testing.T) {
	checkGolden(t, "advise", "advise.golden", "sc", "kmeans")
}

// TestGoldenMitigationReport pins the mitigation sweep's verdict: grid
// layout, ranking and formatting.
func TestGoldenMitigationReport(t *testing.T) {
	checkGolden(t, "mitigation", "mitigation.golden", "kmeans", "bfs")
}

// TestBottleneckStacksSumToIssueSlots enforces the report-level
// closure property: every row's stall categories account for exactly
// 100% of its issue slots (window cycles × SMs) — no cycle lost, no
// cycle double-charged — and the rendered percentages come from the
// same breakdown.
func TestBottleneckStacksSumToIssueSlots(t *testing.T) {
	rep := mustRun[exp.BottleneckReport](t, "bottleneck", config.GTX480Baseline(),
		specs(t, "sc", "leukocyte", "kmeans"), exp.RunParams{WarmupCycles: 500, WindowCycles: 1500, Parallelism: 2})
	for _, row := range rep.Rows {
		slots := row.Cycles * int64(row.SMs)
		if got := row.Stalls.Total(); got != slots {
			t.Errorf("%s: attributed %d cycles, want %d (%d cycles × %d SMs)",
				row.Workload, got, slots, row.Cycles, row.SMs)
		}
		var frac float64
		for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
			frac += row.Stalls.Frac(c)
		}
		if frac < 0.999999 || frac > 1.000001 {
			t.Errorf("%s: category fractions sum to %v, want 1", row.Workload, frac)
		}
	}
}

// TestBottleneckCSVHasAllRows sanity-checks the CSV renderer.
func TestBottleneckCSVHasAllRows(t *testing.T) {
	rep := mustRun[exp.BottleneckReport](t, "bottleneck", config.GTX480Baseline(),
		specs(t, "sc", "leukocyte", "kmeans"), exp.RunParams{WarmupCycles: 200, WindowCycles: 600, Parallelism: 1})
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(rep.Rows) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(rep.Rows), csv)
	}
	if !strings.HasPrefix(lines[0], "workload,ipc,issue_slots,issue,") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
	for i, row := range rep.Rows {
		if !strings.HasPrefix(lines[i+1], row.Workload+",") {
			t.Errorf("CSV row %d = %q, want workload %q", i+1, lines[i+1], row.Workload)
		}
	}
}

// TestBuildAdviseReportShape: every row ranks all perturbations, and
// the merge half rejects a result slice that does not match the grid
// stride.
func TestBuildAdviseReportShape(t *testing.T) {
	sp := specs(t, "sc")
	p := goldenParams(2)
	rep := mustRun[exp.AdviseReport](t, "advise", config.GTX480Baseline(), sp, p)
	if len(rep.Rows) != 1 || len(rep.Rows[0].Interventions) != len(exp.Perturbations()) {
		t.Fatalf("report shape: %d rows, %d interventions", len(rep.Rows), len(rep.Rows[0].Interventions))
	}
	for i := 1; i < len(rep.Rows[0].Interventions); i++ {
		a, b := rep.Rows[0].Interventions[i-1], rep.Rows[0].Interventions[i]
		if a.Score < b.Score {
			t.Errorf("ranking not descending at %d: %f < %f", i, a.Score, b.Score)
		}
	}
	if !strings.HasPrefix(rep.CSV(), "workload,baseline_ipc,bound,rank,") {
		t.Errorf("CSV header: %q", strings.SplitN(rep.CSV(), "\n", 2)[0])
	}

	if _, err := exp.BuildAdviseReport(sp, p, nil); err == nil || !strings.Contains(err.Error(), "advise merge") {
		t.Errorf("mismatched result count error = %v", err)
	}
}

// TestBuildMitigationReportShape: every row ranks all mitigations by
// IPC recovered, the CSV header is stable, and the merge half rejects
// a result slice that does not match the grid stride.
func TestBuildMitigationReportShape(t *testing.T) {
	sp := specs(t, "sc")
	p := goldenParams(2)
	rep := mustRun[exp.MitigationReport](t, "mitigation", config.GTX480Baseline(), sp, p)
	if len(rep.Rows) != 1 || len(rep.Rows[0].Policies) != len(exp.Mitigations()) {
		t.Fatalf("report shape: %d rows, %d policies", len(rep.Rows), len(rep.Rows[0].Policies))
	}
	for i := 1; i < len(rep.Rows[0].Policies); i++ {
		a, b := rep.Rows[0].Policies[i-1], rep.Rows[0].Policies[i]
		if a.DeltaIPC < b.DeltaIPC {
			t.Errorf("ranking not descending at %d: %f < %f", i, a.DeltaIPC, b.DeltaIPC)
		}
	}
	if !strings.HasPrefix(rep.CSV(), "workload,baseline_ipc,bound,rank,policy,") {
		t.Errorf("CSV header: %q", strings.SplitN(rep.CSV(), "\n", 2)[0])
	}

	if _, err := exp.BuildMitigationReport(sp, p, nil); err == nil || !strings.Contains(err.Error(), "mitigation merge") {
		t.Errorf("mismatched result count error = %v", err)
	}
}

// smallConfig is a 4-SM, 2-partition machine that keeps the scenario
// tests quick.
func smallConfig() config.Config {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	return cfg
}

func smallParams(parallelism int) exp.RunParams {
	return exp.RunParams{WarmupCycles: 500, WindowCycles: 1500, Parallelism: parallelism}
}

func TestScenarioSweepComparesControls(t *testing.T) {
	rep := mustRun[exp.ScenarioReport](t, "scenarios", smallConfig(), specs(t, "kmeans", "dct8x8"), smallParams(1))
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Control != row.Scenario+"-fixed" {
			t.Errorf("%s: control named %q", row.Scenario, row.Control)
		}
		if row.Phases != 2 {
			t.Errorf("%s: phase count %d, want 2", row.Scenario, row.Phases)
		}
		if row.ScenarioIPC <= 0 || row.ControlIPC <= 0 {
			t.Errorf("%s: non-positive IPCs: %+v", row.Scenario, row)
		}
		if row.Ratio <= 0 {
			t.Errorf("%s: ratio %f", row.Scenario, row.Ratio)
		}
	}
	s := rep.String()
	if !strings.Contains(s, "kmeans") || !strings.Contains(s, "dct8x8") {
		t.Fatalf("report missing scenarios:\n%s", s)
	}
	csv := rep.CSV()
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("csv shape wrong:\n%s", csv)
	}
}

// TestScenarioSweepParallelismInvariant: the sweep report renders
// byte-identically at any worker count, like every other harness.
func TestScenarioSweepParallelismInvariant(t *testing.T) {
	scen := specs(t, "kmeans", "dct8x8")
	serial := mustRun[exp.ScenarioReport](t, "scenarios", smallConfig(), scen, smallParams(1))
	parallel := mustRun[exp.ScenarioReport](t, "scenarios", smallConfig(), scen, smallParams(4))
	if serial.String() != parallel.String() {
		t.Fatalf("scenario sweep differs across parallelism\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
}

func TestScenarioSweepRejectsSinglePhase(t *testing.T) {
	if _, err := runKind[exp.ScenarioReport](t, "scenarios", smallConfig(), specs(t, "sc"), smallParams(1)); err == nil {
		t.Fatalf("expected error for single-phase spec")
	}
	if _, err := runKind[exp.ScenarioReport](t, "scenarios", smallConfig(), nil, smallParams(1)); err == nil {
		t.Fatalf("expected error for empty scenario list")
	}
}
