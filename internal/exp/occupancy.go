package exp

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// OccupancyRow is one benchmark's §III queue-congestion measurement.
type OccupancyRow struct {
	Workload string
	// L2AccessFull is the fraction of the L2 access queues' usage
	// lifetime during which they were full (paper average: 46%).
	L2AccessFull float64
	// DRAMSchedFull is the same for the DRAM scheduler queues (paper
	// average: 39%).
	DRAMSchedFull float64
	// Supporting occupancy detail.
	L2AccessMeanOcc  float64
	DRAMSchedMeanOcc float64
	AvgMissLatency   float64
}

// OccupancyReport is the §III measurement over a suite.
type OccupancyReport struct {
	Rows []OccupancyRow
	// MeanL2AccessFull and MeanDRAMSchedFull are the suite averages
	// the paper reports (46% and 39%).
	MeanL2AccessFull  float64
	MeanDRAMSchedFull float64
}

// BuildOccupancyReport assembles the §III report from one baseline
// measurement per workload, res[i] belonging to specs[i]. It is the
// occupancy sweep kind's pure merge half; its grid is the
// one-job-per-spec grid, so every measurement shares its cache entry
// with the run and bottleneck kinds.
func BuildOccupancyReport(specs []workload.Spec, res []sim.Results) OccupancyReport {
	var rep OccupancyReport
	var l2s, drams []float64
	for i, sp := range specs {
		r := res[i]
		row := OccupancyRow{
			Workload:         sp.SpecName,
			L2AccessFull:     r.L2AccessQueue.FullOfUsage,
			DRAMSchedFull:    r.DRAMSchedQueue.FullOfUsage,
			L2AccessMeanOcc:  r.L2AccessQueue.MeanOccupancy,
			DRAMSchedMeanOcc: r.DRAMSchedQueue.MeanOccupancy,
			AvgMissLatency:   r.AvgMissLatency,
		}
		rep.Rows = append(rep.Rows, row)
		l2s = append(l2s, row.L2AccessFull)
		drams = append(drams, row.DRAMSchedFull)
	}
	rep.MeanL2AccessFull = stats.Mean(l2s)
	rep.MeanDRAMSchedFull = stats.Mean(drams)
	return rep
}

// String renders the §III table.
func (r OccupancyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§III — queue full-of-usage occupancy (baseline architecture)\n\n")
	fmt.Fprintf(&b, "%-10s %14s %15s %12s\n", "bench", "L2-access-full", "DRAM-sched-full", "avg-miss-lat")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %13.0f%% %14.0f%% %12.0f\n",
			row.Workload, row.L2AccessFull*100, row.DRAMSchedFull*100, row.AvgMissLatency)
	}
	fmt.Fprintf(&b, "%-10s %13.0f%% %14.0f%%   (paper: 46%% / 39%%)\n",
		"average", r.MeanL2AccessFull*100, r.MeanDRAMSchedFull*100)
	return b.String()
}
