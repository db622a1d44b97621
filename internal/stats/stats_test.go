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
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(10, 2)
	if s.Mean() != 0 || s.Count() != 0 {
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

// sampleAll folds per-tick queue lengths into counters, the way a
// per-tick sample of the queue would.
func sampleAll(capacity int, lengths ...int) QueueUsage {
	var sampled, nonEmpty, full, occSum int64
	for _, n := range lengths {
		sampled++
		occSum += int64(n)
		if n > 0 {
			nonEmpty++
		}
		if n >= capacity {
			full++
		}
	}
	return NewQueueUsage("q", capacity, sampled, nonEmpty, full, occSum)
}

func TestQueueUsageFullOfUsage(t *testing.T) {
	// 2 empty cycles, 3 non-empty of which 2 full.
	q := sampleAll(4, 0, 0, 2, 4, 4)
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
	q := sampleAll(4, 0)
	if q.FullOfUsage() != 0 {
		t.Fatalf("unused queue FullOfUsage should be 0")
	}
	if (QueueUsage{}).MeanOccupancy() != 0 {
		t.Fatalf("unsampled queue MeanOccupancy should be 0")
	}
}

func TestQueueUsageMerge(t *testing.T) {
	var a QueueUsage
	a.Merge(sampleAll(4, 4))
	a.Merge(sampleAll(4, 0, 2))
	if a.SampledCycles() != 3 || a.nonEmpty != 2 || a.FullCycles() != 1 || a.Capacity() != 4 {
		t.Fatalf("merge wrong: sampled=%d usage=%d full=%d capacity=%d",
			a.SampledCycles(), a.nonEmpty, a.FullCycles(), a.Capacity())
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
	// full <= nonEmpty <= sampled for any sample sequence, and merging
	// two windows equals sampling them back to back.
	prop := func(a, b []uint8) bool {
		lengths := func(xs []uint8) []int {
			ls := make([]int, len(xs))
			for i, x := range xs {
				ls[i] = int(x % 9)
			}
			return ls
		}
		la, lb := lengths(a), lengths(b)
		q := sampleAll(8, la...)
		q.Merge(sampleAll(8, lb...))
		return q.FullCycles() <= q.nonEmpty && q.nonEmpty <= q.SampledCycles() &&
			q == sampleAll(8, append(la, lb...)...)
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
