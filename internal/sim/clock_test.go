package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestIcntClockRatioOrdinal: the crossbars stamp ReadyAt in
// interconnect cycles and the sinks convert it to the receiver's
// clock, so an interconnect faster than the core can only help and a
// slower one can only hurt. Reading the stamp in the wrong clock makes
// a 2x interconnect hold every packet for ever more core cycles.
func TestIcntClockRatioOrdinal(t *testing.T) {
	wl, err := workload.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(icntMHz int) Results {
		cfg := config.GTX480Baseline()
		cfg.Clock.IcntMHz = icntMHz
		g, err := New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		g.Run(1000)
		g.ResetStats()
		g.Run(4000)
		return g.Results()
	}
	core := config.GTX480Baseline().Clock.CoreMHz
	base, fast, slow := run(core), run(2*core), run(core/2)
	t.Logf("IPC / mean miss latency: 1x %.3f / %.0f, 2x %.3f / %.0f, 0.5x %.3f / %.0f",
		base.IPC, base.AvgMissLatency, fast.IPC, fast.AvgMissLatency, slow.IPC, slow.AvgMissLatency)
	if fast.IPC < base.IPC {
		t.Errorf("icnt at 2x core: IPC %.3f below the 1x baseline %.3f", fast.IPC, base.IPC)
	}
	if fast.AvgMissLatency > base.AvgMissLatency {
		t.Errorf("icnt at 2x core: mean miss latency %.0f above the 1x baseline %.0f",
			fast.AvgMissLatency, base.AvgMissLatency)
	}
	if slow.IPC > base.IPC {
		t.Errorf("icnt at 0.5x core: IPC %.3f above the 1x baseline %.3f", slow.IPC, base.IPC)
	}
}
