package exp

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// LatencyPoint is one x/y point of a Fig. 1 curve.
type LatencyPoint struct {
	// Latency is the fixed L1 miss latency in core cycles (x-axis).
	Latency int64
	// IPC is the absolute IPC at that latency.
	IPC float64
	// Normalized is IPC over the baseline architecture's IPC (y-axis).
	Normalized float64
}

// Fig1Curve is one benchmark's latency-tolerance profile.
type Fig1Curve struct {
	Workload string
	// BaselineIPC is the real-hierarchy IPC the curve normalizes to.
	BaselineIPC float64
	// BaselineAvgMissLatency is the measured average L1-miss round
	// trip of the baseline architecture (§II's "baseline memory
	// latency").
	BaselineAvgMissLatency float64
	Points                 []LatencyPoint
	// CrossoverLatency interpolates where the curve crosses 1.0×: the
	// fixed latency equivalent to the baseline's loaded latency. §II
	// observes it far exceeds the 120-cycle ideal L2 latency.
	CrossoverLatency float64
	// PlateauSpeedup is the normalized IPC at the lowest swept
	// latency (the performance plateau's height).
	PlateauSpeedup float64
}

// DefaultLatencies is Fig. 1's x-axis: 0 to 800 in steps of 50.
func DefaultLatencies() []int64 {
	xs := make([]int64, 0, 17)
	for l := int64(0); l <= 800; l += 50 {
		xs = append(xs, l)
	}
	return xs
}

// fig1Curve assembles one workload's curve from its ordered slice of
// measurements: the baseline first, then one result per latency.
func fig1Curve(name string, latencies []int64, res []sim.Results) Fig1Curve {
	baseRes := res[0]
	c := Fig1Curve{
		Workload:               name,
		BaselineIPC:            baseRes.IPC,
		BaselineAvgMissLatency: baseRes.AvgMissLatency,
	}
	for i, lat := range latencies {
		r := res[1+i]
		pt := LatencyPoint{Latency: lat, IPC: r.IPC}
		if baseRes.IPC > 0 {
			pt.Normalized = r.IPC / baseRes.IPC
		}
		c.Points = append(c.Points, pt)
	}
	if len(c.Points) > 0 {
		c.PlateauSpeedup = c.Points[0].Normalized
	}
	c.CrossoverLatency = crossover(c.Points)
	return c
}

// crossover finds where normalized IPC crosses 1.0, interpolating
// linearly between bracketing points. Curves decrease with latency;
// if the whole sweep stays above 1.0 the last latency is returned,
// and if it starts below 1.0 the first is returned.
func crossover(pts []LatencyPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	if pts[0].Normalized <= 1 {
		return float64(pts[0].Latency)
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if b.Normalized > 1 {
			continue
		}
		// a.Normalized > 1 >= b.Normalized: interpolate.
		dy := a.Normalized - b.Normalized
		if dy <= 0 {
			return float64(b.Latency)
		}
		f := (a.Normalized - 1) / dy
		return float64(a.Latency) + f*float64(b.Latency-a.Latency)
	}
	return float64(pts[len(pts)-1].Latency)
}

// Fig1Report is the Fig. 1 sweep over a suite: one latency-tolerance
// curve per workload, all on the same latency axis.
type Fig1Report struct {
	Latencies []int64
	Curves    []Fig1Curve
}

// Fig1Grid expands Fig. 1's measurement grid: per workload, one
// baseline measurement on base (the real hierarchy every point
// normalizes to) followed by one fixed-latency job per latency, in
// that order. The layout is part of the sweep's byte-identity
// contract — BuildFig1Report reads results in exactly this stride.
// A base that is already fixed-latency is rejected: it has no real
// hierarchy to normalize to.
func Fig1Grid(base config.Config, specs []workload.Spec, latencies []int64) ([]GridJob, error) {
	if base.FixedLatency.Enabled {
		return nil, fmt.Errorf("exp: the latency sweep's baseline must be the real memory hierarchy, not a fixed-latency config")
	}
	return variantGrid("latency", base, specs, len(latencies), func(j int, cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
		cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: latencies[j]}
		return cfg, sp
	})
}

// BuildFig1Report assembles the Fig. 1 report from Fig1Grid's ordered
// results. It is the latency sweep kind's pure merge half, the same
// function whether the results were computed locally or collected
// from a fleet, so the two reports are byte-identical.
func BuildFig1Report(specs []workload.Spec, latencies []int64, res []sim.Results) (Fig1Report, error) {
	rows, err := splitRows("latency", specs, len(latencies), res)
	if err != nil {
		return Fig1Report{}, err
	}
	rep := Fig1Report{Latencies: latencies, Curves: make([]Fig1Curve, len(specs))}
	for i, sp := range specs {
		rep.Curves[i] = fig1Curve(sp.SpecName, latencies, rows[i])
	}
	return rep, nil
}

// String renders the report as a table: one row per latency, one
// column per benchmark (the data behind Fig. 1), followed by the §II
// crossover summary and the paper's reference values.
func (r Fig1Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — IPC normalized to baseline vs fixed L1 miss latency\n\n")
	fmt.Fprintf(&b, "%8s", "latency")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %9s", c.Workload)
	}
	fmt.Fprintln(&b)
	for i, lat := range r.Latencies {
		fmt.Fprintf(&b, "%8d", lat)
		for _, c := range r.Curves {
			fmt.Fprintf(&b, " %9.2f", c.Points[i].Normalized)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "\n§II analysis (per benchmark)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s\n", "bench", "base-IPC", "avg-miss-lat", "crossover")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-10s %12.3f %12.0f %10.0f\n",
			c.Workload, c.BaselineIPC, c.BaselineAvgMissLatency, c.CrossoverLatency)
	}
	b.WriteString("\n(paper Fig. 1: plateaus between ~1.2× and ~6×, sc highest;\n" +
		" §II: crossovers far above the 120-cycle ideal L2 latency)\n")
	return b.String()
}
