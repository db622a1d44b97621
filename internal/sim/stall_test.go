package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestStallAttributionSumsToIssueSlots is the closure invariant of the
// stall-attribution engine: for every built-in workload and scenario,
// every SM cycle is charged to exactly one cause, so each SM's
// breakdown totals its cycle count and the GPU-wide merge totals
// cycles × SMs. It holds across a ResetStats boundary (measurement
// windows start clean) and on the SM's frozen path (the shrunken
// config plus the full set of workloads exercises idle and
// hit-waiting SMs).
func TestStallAttributionSumsToIssueSlots(t *testing.T) {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 6
	cfg.L2.Partitions = 3
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			wl, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := New(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			g.Run(1200)
			assertClosure(t, g, "warm-up window")
			g.ResetStats()
			g.Run(2500)
			assertClosure(t, g, "measurement window")
		})
	}
}

// TestStallAttributionFixedLatency checks the invariant in Fig. 1
// mode, where SMs spend long spans on their frozen path: those
// cycles must be attributed exactly like fully ticked ones.
func TestStallAttributionFixedLatency(t *testing.T) {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 4
	cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 900}
	wl, err := workload.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(1000)
	g.ResetStats()
	g.Run(3000)
	assertClosure(t, g, "fixed-latency window")
	res := g.Results()
	// With no hierarchy below the L1, every memory wait is pure miss
	// latency; the hierarchical causes must stay untouched.
	for _, c := range []stats.StallCause{stats.StallIcnt, stats.StallL2Queue, stats.StallDRAMQueue} {
		if n := res.Stalls.Cycles(c); n != 0 {
			t.Errorf("fixed-latency mode charged %d cycles to %s", n, c)
		}
	}
	if res.Stalls.Cycles(stats.StallL1Miss) == 0 {
		t.Error("fixed-latency 900 should stall on l1-miss, charged 0 cycles")
	}
}

// assertClosure checks the per-SM and GPU-wide attribution sums.
func assertClosure(t *testing.T, g *GPU, where string) {
	t.Helper()
	var issueSlots int64
	for _, sm := range g.SMs() {
		st := sm.Stats()
		bd := sm.StallStack()
		if bd.Total() != st.Cycles {
			t.Errorf("%s: SM attributed %d cycles, ran %d", where, bd.Total(), st.Cycles)
		}
		issueSlots += st.Cycles
	}
	res := g.Results()
	if got := res.Stalls.Total(); got != issueSlots {
		t.Errorf("%s: merged stack totals %d, want %d (sum of SM cycles)", where, got, issueSlots)
	}
	if want := res.Cycles * int64(len(g.SMs())); res.Stalls.Total() != want {
		t.Errorf("%s: merged stack totals %d, want %d (cycles × SMs)", where, res.Stalls.Total(), want)
	}
}
