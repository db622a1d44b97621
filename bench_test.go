package gpgpumem

// One benchmark per paper artifact. Each regenerates the experiment
// behind a figure or table at reduced scale (`sweep latency`,
// `sweep occupancy` and `sweep designspace` run the full-scale
// versions) and reports the headline quantity with b.ReportMetric so
// `go test -bench=.` prints the reproduced numbers:
//
//	BenchmarkFig1LatencyTolerance  — Fig. 1: plateau speedup and
//	                                 crossover latency per benchmark
//	BenchmarkSecIIBaselineLatency  — §II: baseline avg miss latency
//	BenchmarkSecIIIQueueOccupancy  — §III: queue full-of-usage (46/39)
//	BenchmarkSecIVScale*           — §IV/Table I: mean speedups
//	                                 (paper: L1 +4, L2 +59, DRAM +11,
//	                                  L1+L2 +69, L2+DRAM +76)
//	BenchmarkAblation*             — beyond-paper design ablations
import (
	"context"
	"fmt"
	"testing"

	"repro/internal/exp"
)

// benchParams trades a little measurement stability for bench speed;
// the sweep kinds use the full DefaultRunParams.
func benchParams() RunParams { return RunParams{WarmupCycles: 4000, WindowCycles: 10000} }

// suiteSpecs is the Fig. 1 suite as specs, the form the sweep grids
// take.
func suiteSpecs(b *testing.B) []WorkloadSpec {
	b.Helper()
	suite := Suite()
	specs := make([]WorkloadSpec, len(suite))
	for i, wl := range suite {
		sp, err := WorkloadSpecByName(wl.Name())
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = sp
	}
	return specs
}

// measureGrid fails the benchmark on the grid half's error, else runs
// the grid on MeasureBatch with p's methodology: the simulations
// api.Run executes, without the per-job cache key and result encoding
// it adds.
func measureGrid(b *testing.B, grid []exp.GridJob, err error, p RunParams) []Results {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]Job, len(grid))
	for i, g := range grid {
		jobs[i] = Job{Config: g.Config, Workload: g.Spec,
			WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles}
	}
	res, err := MeasureBatch(context.Background(), jobs, p.Parallelism, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// fig1 runs the Fig. 1 grid on a reduced latency axis and merges it.
func fig1(b *testing.B, lats []int64, p RunParams) LatencyReport {
	b.Helper()
	specs := suiteSpecs(b)
	grid, err := exp.Fig1Grid(DefaultConfig(), specs, lats)
	rep, err := exp.BuildFig1Report(specs, lats, measureGrid(b, grid, err, p))
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkFig1LatencyTolerance regenerates Fig. 1 (reduced x-axis)
// and reports each benchmark's plateau speedup (×1000) and crossover
// latency in cycles.
func BenchmarkFig1LatencyTolerance(b *testing.B) {
	lats := []int64{0, 200, 400, 600, 800}
	for i := 0; i < b.N; i++ {
		rep := fig1(b, lats, benchParams())
		for _, c := range rep.Curves {
			b.ReportMetric(c.PlateauSpeedup, c.Workload+"_plateau_x")
			b.ReportMetric(c.CrossoverLatency, c.Workload+"_crossover_cyc")
		}
	}
}

// BenchmarkSecIIBaselineLatency measures the §II observation: the
// baseline average L1-miss latency far exceeds the ideal L2 (120) and
// DRAM (220) access latencies.
func BenchmarkSecIIBaselineLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, wl := range Suite() {
			sys, err := NewSystem(DefaultConfig(), wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchParams().WarmupCycles, benchParams().WindowCycles)
			b.ReportMetric(r.AvgMissLatency, wl.Name()+"_avg_miss_lat")
			sum += r.AvgMissLatency
		}
		b.ReportMetric(sum/8, "suite_avg_miss_lat")
	}
}

// BenchmarkSecIIIQueueOccupancy regenerates §III and reports the
// suite-average full-of-usage percentages (paper: 46% L2 access,
// 39% DRAM scheduler).
func BenchmarkSecIIIQueueOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs := suiteSpecs(b)
		jobs := make([]exp.GridJob, len(specs))
		for j, sp := range specs {
			jobs[j] = exp.GridJob{Config: DefaultConfig(), Spec: sp}
		}
		rep := exp.BuildOccupancyReport(specs, measureGrid(b, jobs, nil, benchParams()))
		b.ReportMetric(rep.MeanL2AccessFull*100, "l2_access_full_pct")
		b.ReportMetric(rep.MeanDRAMSchedFull*100, "dram_sched_full_pct")
	}
}

// benchScaling runs the §IV exploration for one Table I scaling set
// and reports the suite-mean speedup percentage.
func benchScaling(b *testing.B, set ScalingSet) {
	b.Helper()
	sets := []ScalingSet{set}
	for i := 0; i < b.N; i++ {
		specs := suiteSpecs(b)
		grid, err := exp.DesignSpaceGrid(DefaultConfig(), specs, sets)
		res, err := exp.BuildDesignSpaceReport(specs, sets, measureGrid(b, grid, err, benchParams()))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.SpeedupFor(set)-1)*100, "mean_speedup_pct")
	}
}

// BenchmarkSecIVScaleL1 reproduces §IV's "L1 alone" row (paper: +4%).
func BenchmarkSecIVScaleL1(b *testing.B) { benchScaling(b, ScaleL1) }

// BenchmarkSecIVScaleL2 reproduces §IV's "L2 alone" row (paper: +59%).
func BenchmarkSecIVScaleL2(b *testing.B) { benchScaling(b, ScaleL2) }

// BenchmarkSecIVScaleDRAM reproduces §IV's "DRAM alone" row (paper: +11%).
func BenchmarkSecIVScaleDRAM(b *testing.B) { benchScaling(b, ScaleDRAM) }

// BenchmarkSecIVScaleL1L2 reproduces §IV's "L1+L2" row (paper: +69%).
func BenchmarkSecIVScaleL1L2(b *testing.B) { benchScaling(b, ScaleL1L2) }

// BenchmarkSecIVScaleL2DRAM reproduces §IV's "L2+DRAM" row (paper: +76%).
func BenchmarkSecIVScaleL2DRAM(b *testing.B) { benchScaling(b, ScaleL2DRAM) }

// BenchmarkAblationDRAMScheduler compares FR-FCFS against plain FCFS
// on a DRAM-heavy workload (design choice called out in DESIGN.md §7).
func BenchmarkAblationDRAMScheduler(b *testing.B) {
	wl, err := WorkloadByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"frfcfs", "fcfs"} {
			cfg := DefaultConfig()
			cfg.DRAM.Scheduler = sched
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchParams().WarmupCycles, benchParams().WindowCycles)
			b.ReportMetric(r.IPC, sched+"_ipc")
			b.ReportMetric(r.DRAMRowHitRate*100, sched+"_rowhit_pct")
		}
	}
}

// BenchmarkAblationWarpScheduler compares GTO against loose
// round-robin warp scheduling on a locality-sensitive workload.
func BenchmarkAblationWarpScheduler(b *testing.B) {
	wl, err := WorkloadByName("leukocyte")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"gto", "lrr"} {
			cfg := DefaultConfig()
			cfg.Core.Scheduler = sched
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchParams().WarmupCycles, benchParams().WindowCycles)
			b.ReportMetric(r.IPC, sched+"_ipc")
		}
	}
}

// BenchmarkAblationL2AccessQueueDepth sweeps the depth of the §III
// L2 access queue alone, isolating how much of the Table I(b) gain
// comes from that single '=' parameter.
func BenchmarkAblationL2AccessQueueDepth(b *testing.B) {
	wl, err := WorkloadByName("sc")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{2, 8, 32} {
			cfg := DefaultConfig()
			cfg.L2.AccessQueue = depth
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchParams().WarmupCycles, benchParams().WindowCycles)
			b.ReportMetric(r.IPC, "ipc_depth_"+itoa(depth))
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated core cycles per second) on the baseline, for engineering
// regressions rather than paper reproduction.
func BenchmarkSimulatorThroughput(b *testing.B) {
	wl, err := WorkloadByName("cfd")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(DefaultConfig(), wl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "sim_cycles/op")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationBankHash compares plain modulo bank interleaving
// against XOR permutation-based interleaving on the gather-heavy cfd
// model (DESIGN.md §7).
func BenchmarkAblationBankHash(b *testing.B) {
	wl, err := WorkloadByName("cfd")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, hash := range []string{"none", "xor"} {
			cfg := DefaultConfig()
			cfg.DRAM.BankHash = hash
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchParams().WarmupCycles, benchParams().WindowCycles)
			b.ReportMetric(r.IPC, hash+"_ipc")
			b.ReportMetric(r.DRAMRowHitRate*100, hash+"_rowhit_pct")
		}
	}
}

// BenchmarkFig1SuiteParallel measures how the Fig. 1 sweep scales on
// the experiment engine's worker pool. The grid (suite × latencies,
// plus one baseline per benchmark) is identical in every sub-benchmark;
// only the worker count changes, so ns/op directly shows the speedup
// (results are bit-identical at every -j — see
// TestDeterminismAcrossRunner).
func BenchmarkFig1SuiteParallel(b *testing.B) {
	lats := []int64{0, 200, 400, 600, 800}
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			p := benchParams()
			p.Parallelism = j
			for i := 0; i < b.N; i++ {
				fig1(b, lats, p)
			}
		})
	}
}
