package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// burstySpec alternates a dense memory burst (queues saturate) with a
// long compute-heavy quiet phase (queues drain, components idle) —
// the worst case for idle-tick statistics: if an idle tick were
// dropped from any queue's sampled-cycle denominator, this workload's
// back-pressure fractions would inflate toward the burst-only value.
const burstySpec = `{
  "name":"bursty","warps":8,"dep_dist":1,"shared":true,
  "phases":[
    {"name":"burst","instructions":60,"compute_per_mem":0,
     "access_pattern":"gather","working_set_lines":65536,"lines_per_access":8},
    {"name":"quiet","instructions":600,"compute_per_mem":200,
     "access_pattern":"stencil","working_set_lines":4,"lines_per_access":1,"hit_frac":0.95}
  ]}`

func parseBursty(t *testing.T) workload.Spec {
	t.Helper()
	s, err := workload.ParseSpec([]byte(burstySpec))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBackPressureDenominatorsCountIdleTicks: every level's
// back-pressure denominator is its full tick count — idle ticks
// included as not-full samples — so the reported
// fractions are "share of the whole window", not "share of busy
// cycles". A bursty workload makes the distinction visible: its queues
// are saturated during bursts and empty between them, and dropping the
// quiet ticks would inflate every fraction.
func TestBackPressureDenominatorsCountIdleTicks(t *testing.T) {
	const warmup, window = 2000, 5000
	cfg := config.GTX480Baseline()
	g, err := New(cfg, parseBursty(t))
	if err != nil {
		t.Fatal(err)
	}
	g.Run(warmup)
	g.ResetStats()
	g.Run(window)

	// Expected tick counts per domain: the accumulator produces
	// floor(n·mhz/core) ticks in n core cycles, so a window's ticks are
	// the difference of the floors at its ends.
	ticks := func(mhz int) int64 {
		c := int64(cfg.Clock.CoreMHz)
		return (warmup+window)*int64(mhz)/c - warmup*int64(mhz)/c
	}
	l2Ticks, dramTicks, icntTicks := ticks(cfg.Clock.L2MHz), ticks(cfg.Clock.DRAMMHz), ticks(cfg.Clock.IcntMHz)

	for i, p := range g.Partitions() {
		if got := p.AccessUsage().SampledCycles(); got != l2Ticks {
			t.Errorf("partition %d: access queue sampled %d cycles, want every L2 tick (%d)", i, got, l2Ticks)
		}
		if got := p.Channel().SchedUsage().SampledCycles(); got != dramTicks {
			t.Errorf("partition %d: sched queue sampled %d cycles, want every DRAM tick (%d)", i, got, dramTicks)
		}
		if full := p.Stats().InFullCycles; full > l2Ticks {
			t.Errorf("partition %d: %d full cycles exceed %d ticks", i, full, l2Ticks)
		}
		if full := p.Channel().Stats().InFullCycles; full > dramTicks {
			t.Errorf("partition %d: %d DRAM full cycles exceed %d ticks", i, full, dramTicks)
		}
	}
	for name, us := range map[string][]int{
		"req":  {cfg.Core.NumSMs},
		"resp": {cfg.L2.Partitions},
	} {
		x := g.reqX
		if name == "resp" {
			x = g.respX
		}
		want := icntTicks * int64(us[0])
		if got := sumSampled(x.InputUsages()); got != want {
			t.Errorf("%s crossbar inputs sampled %d cycles, want ticks × inputs (%d)", name, got, want)
		}
	}

	// Per-SM queues: the idle fast path samples every skipped cycle.
	for i, sm := range g.SMs() {
		if got := sm.MissQueueUsage().SampledCycles(); got != window {
			t.Errorf("sm %d: miss queue sampled %d cycles, want %d", i, got, window)
		}
	}

	r := g.Results()
	fracs := map[string]float64{
		"req-icnt":   r.BackPressure.ReqIcntInFull,
		"resp-icnt":  r.BackPressure.RespIcntInFull,
		"l2-access":  r.BackPressure.L2AccessInFull,
		"dram-sched": r.BackPressure.DRAMSchedInFull,
	}
	for name, f := range fracs {
		if f < 0 || f > 1 {
			t.Errorf("%s back-pressure fraction out of [0,1]: %v", name, f)
		}
	}
	// The workload saturates during bursts but is quiet most of the
	// window; a denominator that dropped idle ticks would push the L2
	// fraction toward 1. Guard the headroom with a loose bound.
	if r.BackPressure.L2AccessInFull > 0.9 {
		t.Errorf("bursty L2 back pressure %.3f suspiciously close to saturation — denominator may be missing idle ticks",
			r.BackPressure.L2AccessInFull)
	}
}
