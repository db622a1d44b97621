package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSamplerBasics(t *testing.T) {
	s := NewSampler(100, 10)
	for _, v := range []float64{10, 20, 30} {
		s.Add(v)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %v, want 20", s.Mean())
	}
	if s.min != 10 || s.max != 30 {
		t.Fatalf("min/max = %v/%v, want 10/30", s.min, s.max)
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(10, 2)
	if s.Mean() != 0 || s.min != 0 || s.max != 0 {
		t.Fatalf("empty sampler should report zeros")
	}
	if !math.IsNaN(s.Percentile(50)) {
		t.Fatalf("empty percentile should be NaN")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if p := h.Percentile(50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Fatalf("p100 = %v, want 100", p)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 2)
	h.Add(5)
	h.Add(10)
	h.Add(100)
	if h.over != 2 {
		t.Fatalf("overflow = %d, want 2", h.over)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d, want 3", h.Total())
	}
	if p := h.Percentile(100); p != 10 {
		t.Fatalf("overflow percentile = %v, want limit 10", p)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(10, 2)
	h.Add(-5)
	if h.bins[0] != 1 {
		t.Fatalf("negative value should land in bucket 0")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for invalid histogram args")
		}
	}()
	NewHistogram(0, 3)
}

func TestQueueUsageFullOfUsage(t *testing.T) {
	q := NewQueueUsage("q", 4)
	// 2 empty cycles, 3 non-empty of which 2 full.
	q.Sample(0)
	q.Sample(0)
	q.Sample(2)
	q.Sample(4)
	q.Sample(4)
	if q.SampledCycles() != 5 {
		t.Fatalf("sampled = %d", q.SampledCycles())
	}
	if q.nonEmpty != 3 {
		t.Fatalf("usage = %d, want 3", q.nonEmpty)
	}
	if q.FullCycles() != 2 {
		t.Fatalf("full = %d, want 2", q.FullCycles())
	}
	if got, want := q.FullOfUsage(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("fullOfUsage = %v, want %v", got, want)
	}
	if got, want := q.MeanOccupancy(), 2.0; got != want {
		t.Fatalf("mean occupancy = %v, want %v", got, want)
	}
}

func TestQueueUsageNeverUsed(t *testing.T) {
	q := NewQueueUsage("q", 4)
	q.Sample(0)
	if q.FullOfUsage() != 0 {
		t.Fatalf("unused queue FullOfUsage should be 0")
	}
}

func TestQueueUsageMerge(t *testing.T) {
	a := NewQueueUsage("a", 4)
	b := NewQueueUsage("b", 4)
	a.Sample(4)
	b.Sample(0)
	b.Sample(2)
	a.Merge(b)
	if a.SampledCycles() != 3 || a.nonEmpty != 2 || a.FullCycles() != 1 {
		t.Fatalf("merge wrong: sampled=%d usage=%d full=%d", a.SampledCycles(), a.nonEmpty, a.FullCycles())
	}
}

func TestMeans(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}

func TestQueueUsageProperty(t *testing.T) {
	// full <= nonEmpty <= sampled for any sample sequence.
	prop := func(lengths []uint8) bool {
		q := NewQueueUsage("p", 8)
		for _, l := range lengths {
			q.Sample(int(l % 12))
		}
		return q.FullCycles() <= q.nonEmpty && q.nonEmpty <= q.SampledCycles()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.Row("ipc", "%.2f", 1.5)
	tb.Row("long-name", "%d", 7)
	out := tb.String()
	if out == "" {
		t.Fatalf("empty table output")
	}
}
