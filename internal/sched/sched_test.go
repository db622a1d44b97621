package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// refDomain is the historical per-cycle accumulator loop the Domain
// must reproduce exactly.
type refDomain struct {
	mhz, coreMHz int
	acc          int
	cycle        int64
}

func (r *refDomain) step() int64 {
	ticks := int64(0)
	for r.acc += r.mhz; r.acc >= r.coreMHz; r.acc -= r.coreMHz {
		r.cycle++
		ticks++
	}
	return ticks
}

// TestDomainAdvanceMatchesPerCycleLoop: any partition of n core steps
// into Advance calls yields the same cumulative tick count and phase
// as stepping the historical loop n times.
func TestDomainAdvanceMatchesPerCycleLoop(t *testing.T) {
	cases := []struct{ mhz, core int }{
		{924, 700}, {700, 700}, {350, 700}, {1, 700}, {699, 700}, {1400, 700},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		d := NewDomain(tc.mhz, tc.core)
		ref := refDomain{mhz: tc.mhz, coreMHz: tc.core}
		var steps int64
		for steps < 10000 {
			k := int64(rng.Intn(37) + 1)
			got := d.Advance(k)
			var want int64
			for i := int64(0); i < k; i++ {
				want += ref.step()
			}
			steps += k
			if got != want || d.Cycle() != ref.cycle {
				t.Fatalf("%d/%d MHz after %d steps: Advance(%d)=%d ticks (cycle %d), per-cycle loop %d (cycle %d)",
					tc.mhz, tc.core, steps, k, got, d.Cycle(), want, ref.cycle)
			}
		}
		// Cumulative identity: floor(n·mhz/core).
		if want := steps * int64(tc.mhz) / int64(tc.core); d.Cycle() != want {
			t.Fatalf("%d/%d MHz: %d steps produced %d ticks, want floor %d", tc.mhz, tc.core, steps, d.Cycle(), want)
		}
	}
}

// refWheel is the brute-force reference: an unsorted list of
// (cycle, insertion seq) pairs, scanned in full on every pop.
type refWheel struct {
	base int64
	seq  int64
	live []refEntry
}

type refEntry struct {
	cycle, seq int64
	id         int32
}

func (r *refWheel) schedule(cycle int64, id int32) {
	if cycle < r.base {
		cycle = r.base
	}
	r.live = append(r.live, refEntry{cycle, r.seq, id})
	r.seq++
}

// popDue returns every entry at or before now ordered by (cycle, seq).
func (r *refWheel) popDue(now int64) []int32 {
	var due, kept []refEntry
	for _, e := range r.live {
		if e.cycle <= now {
			due = append(due, e)
		} else {
			kept = append(kept, e)
		}
	}
	r.live = kept
	sort.Slice(due, func(i, j int) bool {
		if due[i].cycle != due[j].cycle {
			return due[i].cycle < due[j].cycle
		}
		return due[i].seq < due[j].seq
	})
	ids := make([]int32, len(due))
	for i, e := range due {
		ids[i] = e.id
	}
	if now >= r.base {
		r.base = now + 1
	}
	return ids
}

// TestWheelAgainstSortedReference drives random schedule/pop traffic
// through the wheel and the brute-force reference and requires the
// exact pop sequence — earliest cycle first, FIFO within a cycle — at
// every step. Schedules land in the past (clamped to the base), at the
// base, in dense near-term bursts that share cycles, and at horizons
// up to 10^6 cycles; time sometimes jumps past all of them.
func TestWheelAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Wheel
	var ref refWheel
	now := int64(0)
	buf := make([]int32, 0, 64)
	for step := 0; step < 20000; step++ {
		for n := rng.Intn(5); n > 0; n-- {
			var c int64
			switch rng.Intn(4) {
			case 0:
				c = now - int64(rng.Intn(50)) // past: clamps
			case 1:
				c = now + int64(rng.Intn(4)) // shared near-term cycles
			case 2:
				c = now + int64(rng.Intn(300))
			default:
				c = now + int64(rng.Intn(1_000_000))
			}
			id := int32(rng.Intn(1000))
			w.Schedule(c, id)
			ref.schedule(c, id)
		}
		if w.Len() != len(ref.live) {
			t.Fatalf("step %d: Len=%d, want %d", step, w.Len(), len(ref.live))
		}
		jump := int64(rng.Intn(8))
		if rng.Intn(500) == 0 {
			jump = int64(rng.Intn(2_000_000))
		}
		now += jump
		buf = w.PopDue(now, buf[:0])
		want := ref.popDue(now)
		if len(buf) != len(want) {
			t.Fatalf("step %d (now=%d): popped %v, want %v", step, now, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("step %d (now=%d): popped %v, want %v", step, now, buf, want)
			}
		}
		now++
	}
}

// TestWheelPopOrderEarliestFirst: pops come earliest-cycle-first and
// FIFO within a cycle, a pop never returns entries beyond now, and a
// past schedule clamps to the present.
func TestWheelPopOrderEarliestFirst(t *testing.T) {
	var w Wheel
	w.Schedule(300, 3)
	w.Schedule(10, 1)
	w.Schedule(70000, 5)
	w.Schedule(150, 2)
	w.Schedule(300, 4)
	if got := w.PopDue(9, nil); len(got) != 0 {
		t.Fatalf("PopDue(9) = %v, want nothing", got)
	}
	buf := w.PopDue(70000, nil)
	want := []int32{1, 2, 3, 4, 5}
	if len(buf) != len(want) {
		t.Fatalf("popped %v, want %v", buf, want)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("popped %v, want %v", buf, want)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty after draining: %d", w.Len())
	}
	// Past schedules clamp to the present: due at 70001, not before.
	w.Schedule(5, 9)
	if got := w.PopDue(70000, nil); len(got) != 0 {
		t.Fatalf("clamped entry popped at 70000: %v", got)
	}
	if got := w.PopDue(70001, nil); len(got) != 1 || got[0] != 9 {
		t.Fatalf("clamped entry: PopDue(70001) = %v, want [9]", got)
	}
}

// TestWheelSteadyStateAllocatesNothing: after Preallocate(n), filling
// the wheel to n entries and then a schedule/pop cycle that keeps at
// most n entries live allocate nothing — the fixed-latency backend's
// one-hint-per-SM pattern.
func TestWheelSteadyStateAllocatesNothing(t *testing.T) {
	const n = 16
	// AllocsPerRun calls the function once more than it counts, so
	// each call fills its own freshly preallocated wheel.
	wheels := make([]Wheel, 2)
	for i := range wheels {
		wheels[i].Preallocate(n)
	}
	next := 0
	fill := testing.AllocsPerRun(1, func() {
		w := &wheels[next]
		next++
		for id := int32(0); id < n; id++ {
			w.Schedule(int64(id%5), id)
		}
	})
	if fill != 0 {
		t.Fatalf("filling a preallocated wheel allocates %.1f times, want 0", fill)
	}

	w := &wheels[1]
	buf := make([]int32, 0, n)
	now := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = w.PopDue(now, buf[:0])
		for _, id := range buf {
			w.Schedule(now+1+int64(id%7), id)
		}
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/PopDue allocates %.1f per cycle, want 0", allocs)
	}
	if w.Len() != n {
		t.Fatalf("Len=%d, want %d", w.Len(), n)
	}
}
