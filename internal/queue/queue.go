// Package queue implements the bounded FIFO queues that connect every
// stage of the memory hierarchy. All back pressure in the simulator
// flows through these queues: a full queue refuses Push and the
// upstream stage stalls, exactly the congestion-propagation mechanism
// the paper characterizes.
package queue

import (
	"fmt"

	"repro/internal/stats"
)

// Clock is a queue owner's occupancy clock: the count of the owner's
// ticks so far. The owner calls Tick once per cycle of its clock
// domain, at the point of its tick where its queues' lengths count for
// that cycle; a queue tracked on the clock reads it on every change.
// The zero value is ready to use.
type Clock struct{ now int64 }

// Tick counts one owner tick.
func (c *Clock) Tick() { c.now++ }

// untracked is the clock of queues built by New: it never ticks, so
// their counters stay zero.
var untracked Clock

// Queue is a bounded FIFO with occupancy accounting. It is implemented
// as a ring buffer; the zero value is not usable — construct with New
// or NewTracked.
//
// Occupancy is integrated on change, not sampled per tick: dwell[n]
// holds the number of clock ticks the queue has spent at length n. A
// change of length at clock reading now closes the old length's span
// (dwell[old] += now) and opens the new one's (dwell[new] -= now);
// the open span of the current length is added at read time. Usage
// therefore returns exactly the counters a per-tick sample of Len at
// every Clock.Tick would give, while Push and Pop do no per-tick work
// and take no branch on the clock.
type Queue[T any] struct {
	name  string
	buf   []T
	head  int
	size  int
	clock *Clock
	dwell []int64 // per length 0..Cap, ticks spent there since base
	base  int64   // clock reading at the last ResetUsage
}

// New returns an untracked queue with the given capacity: its Usage
// stays zero. Capacity must be positive.
func New[T any](name string, capacity int) *Queue[T] {
	return NewTracked[T](name, capacity, &untracked)
}

// NewTracked returns a queue whose occupancy is counted on the
// owner's clock. Capacity must be positive.
func NewTracked[T any](name string, capacity int, clock *Clock) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: capacity must be positive, got %d (%s)", capacity, name))
	}
	q := &Queue[T]{name: name, buf: make([]T, capacity), clock: clock,
		dwell: make([]int64, capacity+1)}
	q.ResetUsage()
	return q
}

// Name returns the queue's diagnostic name.
func (q *Queue[T]) Name() string { return q.name }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.size == len(q.buf) }

// Free returns the number of unoccupied slots.
func (q *Queue[T]) Free() int { return len(q.buf) - q.size }

// Push appends v and reports whether there was room. A false return is
// the back-pressure signal to the caller.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	now := q.clock.now
	q.dwell[q.size] += now
	q.size++
	q.dwell[q.size] -= now
	return true
}

// Pop removes and returns the oldest item. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.leave()
	return v, true
}

// leave does the occupancy accounting of one item leaving.
func (q *Queue[T]) leave() {
	now := q.clock.now
	q.dwell[q.size] += now
	q.size--
	q.dwell[q.size] -= now
}

// Peek returns the oldest item without removing it. ok is false when
// empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest item (0 = head). It panics when i is out
// of range; schedulers that scan the queue (FR-FCFS) use it with Len.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("queue %s: At(%d) out of range (len %d)", q.name, i, q.size))
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// Segments returns the queued items oldest-first as at most two
// contiguous views of the ring buffer (the second is non-nil only
// when the ring wraps). Schedulers that scan every queued item each
// cycle (FR-FCFS) iterate these directly instead of paying At's
// index arithmetic per element. The views alias the queue's storage
// and are invalidated by any mutation.
func (q *Queue[T]) Segments() (a, b []T) {
	if n := q.head + q.size; n <= len(q.buf) {
		return q.buf[q.head:n], nil
	}
	return q.buf[q.head:], q.buf[:(q.head+q.size)%len(q.buf)]
}

// Remove deletes and returns the i-th oldest item, preserving the
// order of the rest. It panics when i is out of range. FR-FCFS uses
// this to issue row hits from the middle of the scheduler queue.
func (q *Queue[T]) Remove(i int) T {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("queue %s: Remove(%d) out of range (len %d)", q.name, i, q.size))
	}
	v := q.buf[(q.head+i)%len(q.buf)]
	// Shift the tail segment left by one.
	for j := i; j < q.size-1; j++ {
		q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j+1)%len(q.buf)]
	}
	var zero T
	q.buf[(q.head+q.size-1)%len(q.buf)] = zero
	q.leave()
	return v
}

// Usage returns the queue's occupancy counters since the last
// ResetUsage: the ticks of its clock, how many of them found it
// non-empty and how many full, and its length summed over them.
// Reading them does not allocate.
func (q *Queue[T]) Usage() stats.QueueUsage {
	now, capacity := q.clock.now, len(q.buf)
	occ := int64(q.size) * now // the current length's span is open
	for n, d := range q.dwell {
		occ += int64(n) * d
	}
	empty, full := q.dwell[0], q.dwell[capacity]
	switch q.size {
	case 0:
		empty += now
	case capacity:
		full += now
	}
	sampled := now - q.base
	return stats.NewQueueUsage(q.name, capacity, sampled, sampled-empty, full, occ)
}

// ResetUsage zeroes the occupancy counters for a new measurement
// window; queued items are untouched and count from here on.
func (q *Queue[T]) ResetUsage() {
	now := q.clock.now
	clear(q.dwell)
	q.dwell[q.size] = -now
	q.base = now
}
