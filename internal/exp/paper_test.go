package exp_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The paper-artifact sweeps (Fig. 1, §III, Table I / §IV) run through
// api.Run like every other kind. The registry pins their axes; the
// tests below that need a reduced axis wrap the same exp Grid/Build
// pair on it, exactly as the registry entry does.

// latencyKind is the latency kind on a pinned latency axis.
func latencyKind(lats []int64) api.Kind {
	return api.Kind{
		Name: "latency",
		Grid: func(cfg config.Config, sp []workload.Spec) ([]api.Job, error) {
			return exp.Fig1Grid(cfg, sp, lats)
		},
		Report: func(_ config.Config, sp []workload.Spec, _ exp.RunParams, _ []api.Job, res []api.GridResult) (any, error) {
			return exp.BuildFig1Report(sp, lats, results(res))
		},
	}
}

// designSpaceKind is the designspace kind on a pinned set axis.
func designSpaceKind(sets []config.ScalingSet) api.Kind {
	return api.Kind{
		Name: "designspace",
		Grid: func(cfg config.Config, sp []workload.Spec) ([]api.Job, error) {
			return exp.DesignSpaceGrid(cfg, sp, sets)
		},
		Report: func(_ config.Config, sp []workload.Spec, _ exp.RunParams, _ []api.Job, res []api.GridResult) (any, error) {
			return exp.BuildDesignSpaceReport(sp, sets, results(res))
		},
	}
}

func results(res []api.GridResult) []sim.Results {
	out := make([]sim.Results, len(res))
	for i, r := range res {
		out[i] = r.Results
	}
	return out
}

// mustRunWith is runWith for sweeps that must succeed.
func mustRunWith[R any](t *testing.T, k api.Kind, cfg config.Config, sp []workload.Spec, p exp.RunParams) R {
	t.Helper()
	rep, err := runWith[R](k, cfg, sp, p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGoldenLatsweepReport pins the Fig. 1 report on the reduced
// {0, 200, 400} axis at two worker counts. No CLI serves this axis,
// so the test owns the file's regeneration:
// UPDATE_GOLDEN=1 go test ./internal/exp/ -run TestGoldenLatsweepReport
// (scripts/regen-golden.sh does this).
func TestGoldenLatsweepReport(t *testing.T) {
	golden := filepath.Join("testdata", "latsweep-sc-cfd.golden")
	k := latencyKind([]int64{0, 200, 400})
	sp := specs(t, "sc", "cfd")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		rep := mustRunWith[exp.Fig1Report](t, k, config.GTX480Baseline(), sp, goldenParams(1))
		if err := os.WriteFile(golden, []byte(rep.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 3} {
		rep := mustRunWith[exp.Fig1Report](t, k, config.GTX480Baseline(), sp, goldenParams(j))
		if got := rep.String(); got != string(want) {
			t.Errorf("j=%d: latsweep report drifted from golden:\n got:\n%s\nwant:\n%s", j, got, want)
		}
	}
}

// TestLatencyKindAxisMapping: the registry's latency kind, on the
// full 0..800 step 50 axis, measures exactly the points a reduced
// {0, 200, 400} grid measures — which checks that the grid index of
// every latency maps back to the right point in the merge.
func TestLatencyKindAxisMapping(t *testing.T) {
	sp := specs(t, "sc", "cfd")
	full := mustRun[exp.Fig1Report](t, "latency", smallConfig(), sp, smallParams(2))
	reduced := mustRunWith[exp.Fig1Report](t, latencyKind([]int64{0, 200, 400}), smallConfig(), sp, smallParams(2))
	if len(full.Latencies) != len(exp.DefaultLatencies()) {
		t.Fatalf("latency kind swept %v, want the Fig. 1 axis", full.Latencies)
	}
	for ci, rc := range reduced.Curves {
		fc := full.Curves[ci]
		if fc.Workload != rc.Workload || fc.BaselineIPC != rc.BaselineIPC || fc.BaselineAvgMissLatency != rc.BaselineAvgMissLatency {
			t.Errorf("curve %d: baseline differs: full %+v, reduced %+v", ci, fc, rc)
		}
		for _, pt := range rc.Points {
			if got := fc.Points[pt.Latency/50]; got != pt {
				t.Errorf("%s @%d: full-axis point %+v, reduced-axis point %+v", rc.Workload, pt.Latency, got, pt)
			}
		}
	}
}

// TestFig1SuiteParallelismInvariant: the full Fig. 1 report renders
// byte-identically at any worker count.
func TestFig1SuiteParallelismInvariant(t *testing.T) {
	checkParallelismInvariant(t, "latency", 8)
}

// TestOccupancyParallelismInvariant: the §III report is identical at
// any worker count.
func TestOccupancyParallelismInvariant(t *testing.T) {
	checkParallelismInvariant(t, "occupancy", 4)
}

// TestDesignSpaceParallelismInvariant: the §IV report is identical at
// any worker count.
func TestDesignSpaceParallelismInvariant(t *testing.T) {
	checkParallelismInvariant(t, "designspace", 8)
}

// checkParallelismInvariant runs a kind serially and on j workers over
// a three-benchmark suite and compares the rendered reports.
func checkParallelismInvariant(t *testing.T, kind string, j int) {
	t.Helper()
	sp := specs(t, "sc", "cfd", "nn")
	serial := mustRun[interface{ String() string }](t, kind, smallConfig(), sp, smallParams(1))
	parallel := mustRun[interface{ String() string }](t, kind, smallConfig(), sp, smallParams(j))
	if serial.String() != parallel.String() {
		t.Fatalf("%s report differs across parallelism\nserial:\n%s\nparallel:\n%s",
			kind, serial.String(), parallel.String())
	}
}

// fastParams keeps the harness-shape tests quick.
func fastParams() exp.RunParams { return exp.RunParams{WarmupCycles: 1500, WindowCycles: 4000} }

func congested() workload.Spec {
	return workload.Spec{
		SpecName: "hammer", Warps: 24, ComputePerMem: 3, DepDist: 1,
		AccessPattern: workload.Thrash, WorkingSetLines: 1024,
		Shared: true, LinesPerAccess: 1,
	}
}

func TestFig1CurveShape(t *testing.T) {
	rep := mustRunWith[exp.Fig1Report](t, latencyKind([]int64{0, 200, 600, 1200}),
		smallConfig(), []workload.Spec{congested()}, fastParams())
	c := rep.Curves[0]
	if len(c.Points) != 4 {
		t.Fatalf("points = %d", len(c.Points))
	}
	// Monotone non-increasing normalized IPC.
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Normalized > c.Points[i-1].Normalized*1.02 {
			t.Fatalf("curve not decreasing: %+v", c.Points)
		}
	}
	if c.PlateauSpeedup <= 1 {
		t.Fatalf("congested workload should speed up at 0 latency: %v", c.PlateauSpeedup)
	}
	// The crossover should land near the measured baseline latency.
	if c.CrossoverLatency <= 0 {
		t.Fatalf("no crossover found")
	}
	ratio := c.CrossoverLatency / c.BaselineAvgMissLatency
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("crossover %v inconsistent with baseline latency %v",
			c.CrossoverLatency, c.BaselineAvgMissLatency)
	}
}

func TestOccupancyReport(t *testing.T) {
	rep := mustRun[exp.OccupancyReport](t, "occupancy", smallConfig(), []workload.Spec{congested()}, fastParams())
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.L2AccessFull < 0 || row.L2AccessFull > 1 || row.DRAMSchedFull < 0 || row.DRAMSchedFull > 1 {
		t.Fatalf("occupancies out of range: %+v", row)
	}
	if rep.MeanL2AccessFull != row.L2AccessFull {
		t.Fatalf("mean != single row")
	}
	if !strings.Contains(rep.String(), "hammer") {
		t.Fatalf("report missing workload name")
	}
}

func TestDesignSpaceSpeedups(t *testing.T) {
	res := mustRunWith[exp.DesignSpaceResult](t, designSpaceKind([]config.ScalingSet{config.ScaleL2}),
		smallConfig(), []workload.Spec{congested()}, fastParams())
	if len(res.Speedup) != 1 || len(res.Speedup[0]) != 1 {
		t.Fatalf("shape wrong: %+v", res.Speedup)
	}
	sp := res.SpeedupFor(config.ScaleL2)
	if sp <= 1.1 {
		t.Fatalf("L2 scaling speedup = %v for a hierarchy-bound workload", sp)
	}
	if res.SpeedupFor(config.ScaleDRAM) != 0 {
		t.Fatalf("unevaluated set should report 0")
	}
	if !strings.Contains(res.String(), "hammer") {
		t.Fatalf("report missing workload")
	}
}

func TestFig1SuiteAndReportRendering(t *testing.T) {
	rep := mustRunWith[exp.Fig1Report](t, latencyKind([]int64{0, 400}),
		smallConfig(), []workload.Spec{congested()}, fastParams())
	out := rep.String()
	for _, frag := range []string{"latency", "hammer", "crossover"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}

// TestPaperKindMergeRejectsMismatch: the stride-based merge halves
// reject a result slice that does not match their grid.
func TestPaperKindMergeRejectsMismatch(t *testing.T) {
	sp := specs(t, "sc")
	if _, err := exp.BuildFig1Report(sp, []int64{0, 400}, nil); err == nil || !strings.Contains(err.Error(), "latency merge") {
		t.Errorf("fig1 mismatched result count error = %v", err)
	}
	if _, err := exp.BuildDesignSpaceReport(sp, []config.ScalingSet{config.ScaleL2}, nil); err == nil || !strings.Contains(err.Error(), "designspace merge") {
		t.Errorf("designspace mismatched result count error = %v", err)
	}
}
