package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BatchReport renders the full measurement report of a batch of
// simulations, one section per workload — the exact output of
// cmd/gpusim, shared with the golden-output tests so the CLI and the
// snapshot gate can never drift apart. scale names the applied
// scaling set ("baseline" for the unmodified architecture).
func BatchReport(scale string, warmup, window int64, wls []workload.Workload, res []sim.Results) string {
	var b strings.Builder
	for i, wl := range wls {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "workload %s on %s config (%d-cycle window after %d warm-up)\n\n",
			wl.Name(), scale, window, warmup)
		b.WriteString(res[i].String())
	}
	return b.String()
}

// CSV renders the Fig. 1 report as comma-separated values: a header
// row of benchmark names, then one row per swept latency — ready for
// any plotting tool.
func (r Fig1Report) CSV() string {
	var b strings.Builder
	b.WriteString("latency")
	for _, c := range r.Curves {
		b.WriteString(",")
		b.WriteString(c.Workload)
	}
	b.WriteString("\n")
	for i, lat := range r.Latencies {
		b.WriteString(strconv.FormatInt(lat, 10))
		for _, c := range r.Curves {
			fmt.Fprintf(&b, ",%.4f", c.Points[i].Normalized)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the §III occupancy report as comma-separated values.
func (r OccupancyReport) CSV() string {
	var b strings.Builder
	b.WriteString("bench,l2_access_full,dram_sched_full,l2_access_mean_occ,dram_sched_mean_occ,avg_miss_latency\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.2f,%.2f,%.0f\n",
			row.Workload, row.L2AccessFull, row.DRAMSchedFull,
			row.L2AccessMeanOcc, row.DRAMSchedMeanOcc, row.AvgMissLatency)
	}
	fmt.Fprintf(&b, "average,%.4f,%.4f,,,\n", r.MeanL2AccessFull, r.MeanDRAMSchedFull)
	return b.String()
}

// CSV renders the §IV design-space result as comma-separated values.
func (r DesignSpaceResult) CSV() string {
	var b strings.Builder
	b.WriteString("bench,base_ipc")
	for _, s := range r.Sets {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(s.String(), "+", "_"))
	}
	b.WriteString("\n")
	for wi, w := range r.Workloads {
		fmt.Fprintf(&b, "%s,%.4f", w, r.BaselineIPC[wi])
		for si := range r.Sets {
			fmt.Fprintf(&b, ",%.4f", r.Speedup[wi][si])
		}
		b.WriteString("\n")
	}
	b.WriteString("average,")
	for si := range r.Sets {
		fmt.Fprintf(&b, ",%.4f", r.MeanSpeedup[si])
	}
	b.WriteString("\n")
	return b.String()
}
