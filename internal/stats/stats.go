// Package stats provides the measurement substrate for the simulator:
// latency samplers with histograms, per-cycle stall attribution, and
// queue-usage counters that implement the paper's "full for X% of
// usage lifetime" metric (§III).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Sampler accumulates a stream of values (typically latencies) and
// reports their mean and histogram percentiles. The zero value is
// ready to use.
type Sampler struct {
	count int64
	sum   float64
	hist  *Histogram
}

// NewSampler returns a Sampler with an attached histogram covering
// [0, limit) in the given number of bins; values >= limit land in an
// overflow bin.
func NewSampler(limit float64, bins int) *Sampler {
	return &Sampler{hist: NewHistogram(limit, bins)}
}

// Add records one observation.
func (s *Sampler) Add(v float64) {
	s.count++
	s.sum += v
	if s.hist != nil {
		s.hist.Add(v)
	}
}

// Count returns the number of observations.
func (s *Sampler) Count() int64 { return s.count }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sampler) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Percentile returns the p-th percentile (0 < p <= 100) estimated from
// the histogram, or NaN if the sampler has no histogram or no data.
func (s *Sampler) Percentile(p float64) float64 {
	if s.hist == nil || s.count == 0 {
		return math.NaN()
	}
	return s.hist.Percentile(p)
}

// Histogram is a fixed-range linear histogram with an overflow bin.
type Histogram struct {
	limit float64
	width float64
	bins  []int64
	over  int64
	total int64
}

// NewHistogram builds a histogram over [0, limit) with bins equal-width
// buckets. limit must be positive and bins at least 1.
func NewHistogram(limit float64, bins int) *Histogram {
	if limit <= 0 || bins < 1 {
		panic(fmt.Sprintf("stats: invalid histogram limit=%v bins=%d", limit, bins))
	}
	return &Histogram{limit: limit, width: limit / float64(bins), bins: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.total++
	if v >= h.limit {
		h.over++
		return
	}
	if v < 0 {
		v = 0
	}
	idx := int(v / h.width)
	if idx >= len(h.bins) {
		idx = len(h.bins) - 1
	}
	h.bins[idx]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Percentile returns the p-th percentile (0 < p <= 100) using the
// upper edge of the bucket containing the rank; overflow observations
// report the histogram limit.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range h.bins {
		cum += b
		if cum >= rank {
			return float64(i+1) * h.width
		}
	}
	return h.limit
}

// QueueUsage is a bounded queue's occupancy over the ticks its owner
// observed it: the value the queue package's change-driven counters
// read out as. The paper's §III metric is FullOfUsage: the fraction of
// non-empty ("usage lifetime") ticks during which the queue was full.
type QueueUsage struct {
	Name string

	sampled  int64
	nonEmpty int64
	full     int64
	occSum   int64
	capacity int
}

// NewQueueUsage returns the counters of a queue with the given
// capacity observed for sampled ticks: nonEmpty of them found it
// non-empty, full of them at capacity, and occSum is its length summed
// over all of them.
func NewQueueUsage(name string, capacity int, sampled, nonEmpty, full, occSum int64) QueueUsage {
	return QueueUsage{Name: name, capacity: capacity,
		sampled: sampled, nonEmpty: nonEmpty, full: full, occSum: occSum}
}

// Capacity returns the tracked queue's capacity.
func (q QueueUsage) Capacity() int { return q.capacity }

// SampledCycles returns how many cycles were observed.
func (q QueueUsage) SampledCycles() int64 { return q.sampled }

// FullCycles returns the number of cycles the queue was at capacity.
func (q QueueUsage) FullCycles() int64 { return q.full }

// FullOfUsage returns full-cycles divided by non-empty cycles — the
// paper's "full for X% of usage lifetime" metric — or 0 if the queue
// was never used.
func (q QueueUsage) FullOfUsage() float64 {
	if q.nonEmpty == 0 {
		return 0
	}
	return float64(q.full) / float64(q.nonEmpty)
}

// MeanOccupancy returns the average queue length over all sampled
// cycles, or 0 if nothing was sampled.
func (q QueueUsage) MeanOccupancy() float64 {
	if q.sampled == 0 {
		return 0
	}
	return float64(q.occSum) / float64(q.sampled)
}

// Merge folds other's counters into q (used to aggregate
// per-partition queues into a suite-level view). Capacities must
// match; the zero value takes other's name and capacity.
func (q *QueueUsage) Merge(other QueueUsage) {
	if q.capacity == 0 {
		q.Name, q.capacity = other.Name, other.capacity
	}
	q.sampled += other.sampled
	q.nonEmpty += other.nonEmpty
	q.full += other.full
	q.occSum += other.occSum
}

// Table renders name/value rows as aligned text, for CLI reports.
type Table struct {
	rows [][2]string
}

// Row appends a formatted row.
func (t *Table) Row(name, format string, args ...any) {
	t.rows = append(t.rows, [2]string{name, fmt.Sprintf(format, args...)})
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	w := 0
	for _, r := range t.rows {
		if len(r[0]) > w {
			w = len(r[0])
		}
	}
	var b strings.Builder
	for _, r := range t.rows {
		fmt.Fprintf(&b, "  %-*s  %s\n", w, r[0], r[1])
	}
	return b.String()
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Reset zeroes the sampler (and its histogram) for a new window.
func (s *Sampler) Reset() {
	h := s.hist
	*s = Sampler{}
	if h != nil {
		for i := range h.bins {
			h.bins[i] = 0
		}
		h.over, h.total = 0, 0
		s.hist = h
	}
}
