package sched

// entry is one scheduled id.
type entry struct {
	cycle int64
	id    int32
}

// Wheel is a due list over absolute cycles, used to schedule delivery
// events (the fixed-latency backend's response due-times) without
// scanning every pending item per cycle. Entries are kept sorted by
// cycle, FIFO within a cycle, so PopDue takes a prefix. Its callers
// keep at most one entry per SM live, so the insertion shift is short.
//
// The zero value is an empty wheel based at cycle 0.
type Wheel struct {
	base int64   // every live entry has cycle >= base
	due  []entry // sorted by cycle, insertion order within a cycle
}

// Len returns the number of live entries.
func (w *Wheel) Len() int { return len(w.due) }

// Preallocate gives the wheel capacity for n live entries, so a caller
// that never holds more (the fixed-latency backend holds at most one
// per SM) schedules and pops without allocating. Must be called
// before the first Schedule.
func (w *Wheel) Preallocate(n int) {
	if len(w.due) != 0 {
		panic("sched: Preallocate on a non-empty wheel")
	}
	w.due = make([]entry, 0, n)
}

// Schedule adds id at the given absolute cycle. Cycles before the
// base are clamped to it: the entry pops on the next PopDue.
func (w *Wheel) Schedule(cycle int64, id int32) {
	if cycle < w.base {
		cycle = w.base
	}
	// Insert after every entry at or before cycle (FIFO within it).
	i := len(w.due)
	for i > 0 && w.due[i-1].cycle > cycle {
		i--
	}
	w.due = append(w.due, entry{})
	copy(w.due[i+1:], w.due[i:])
	w.due[i] = entry{cycle, id}
}

// PopDue appends to buf the ids of every entry scheduled at or before
// now (earliest cycle first, FIFO within a cycle) and advances the
// wheel base to now+1, then returns the extended buffer.
func (w *Wheel) PopDue(now int64, buf []int32) []int32 {
	n := 0
	for n < len(w.due) && w.due[n].cycle <= now {
		buf = append(buf, w.due[n].id)
		n++
	}
	if n > 0 {
		w.due = w.due[:copy(w.due, w.due[n:])]
	}
	if now >= w.base {
		w.base = now + 1
	}
	return buf
}
