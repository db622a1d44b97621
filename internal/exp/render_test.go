package exp

import (
	"strings"
	"testing"

	"repro/internal/config"
)

func sampleFig1() Fig1Report {
	return Fig1Report{
		Latencies: []int64{0, 400, 800},
		Curves: []Fig1Curve{
			{Workload: "a", Points: []LatencyPoint{
				{Latency: 0, Normalized: 3}, {Latency: 400, Normalized: 1.5}, {Latency: 800, Normalized: 0.8},
			}},
			{Workload: "b", Points: []LatencyPoint{
				{Latency: 0, Normalized: 1.2}, {Latency: 400, Normalized: 1.0}, {Latency: 800, Normalized: 0.9},
			}},
		},
	}
}

func TestFig1CSV(t *testing.T) {
	csv := sampleFig1().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d: %q", len(lines), csv)
	}
	if lines[0] != "latency,a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,3.0000,1.2000") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestOccupancyCSV(t *testing.T) {
	rep := OccupancyReport{
		Rows: []OccupancyRow{{
			Workload: "a", L2AccessFull: 0.4, DRAMSchedFull: 0.3,
			L2AccessMeanOcc: 4, DRAMSchedMeanOcc: 8, AvgMissLatency: 500,
		}},
		MeanL2AccessFull: 0.4, MeanDRAMSchedFull: 0.3,
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "a,0.4000,0.3000,4.00,8.00,500") {
		t.Fatalf("csv = %q", csv)
	}
	if !strings.Contains(csv, "average,0.4000,0.3000") {
		t.Fatalf("missing average: %q", csv)
	}
}

func TestDesignSpaceCSV(t *testing.T) {
	res := DesignSpaceResult{
		Sets:        []config.ScalingSet{config.ScaleL2},
		Workloads:   []string{"a"},
		BaselineIPC: []float64{2},
		Speedup:     [][]float64{{1.5}},
		MeanSpeedup: []float64{1.5},
	}
	csv := res.CSV()
	if !strings.Contains(csv, "a,2.0000,1.5000") {
		t.Fatalf("csv = %q", csv)
	}
	if !strings.Contains(csv, "bench,base_ipc,L2") {
		t.Fatalf("header: %q", csv)
	}
}
