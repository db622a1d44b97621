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

// TestWheelAgainstSortedReference drives random schedule/pop traffic
// through the wheel and a sorted-slice reference, comparing Earliest
// and the popped multisets at every step. Cycles are drawn across all
// three ranges (level 0, level 1, overflow).
func TestWheelAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Wheel
	var ref []entry
	now := int64(0)
	buf := make([]int32, 0, 64)
	for step := 0; step < 5000; step++ {
		// Schedule a burst at mixed horizons.
		for n := rng.Intn(4); n > 0; n-- {
			var d int64
			switch rng.Intn(3) {
			case 0:
				d = int64(rng.Intn(l0Size))
			case 1:
				d = int64(rng.Intn(wheelSpan))
			default:
				d = int64(rng.Intn(3 * wheelSpan))
			}
			c := now + d
			id := int32(rng.Intn(100))
			w.Schedule(c, id)
			ref = append(ref, entry{c, id})
		}
		if w.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d, want %d", step, w.Len(), len(ref))
		}
		wantMin := NoEvent
		for _, e := range ref {
			if e.cycle < wantMin {
				wantMin = e.cycle
			}
		}
		if got, ok := w.Earliest(); (ok && got != wantMin) || (!ok && wantMin != NoEvent) {
			t.Fatalf("step %d: Earliest=%d ok=%v, want %d", step, got, ok, wantMin)
		}
		// Advance time, sometimes jumping far past the wheel span.
		jump := int64(rng.Intn(40))
		if rng.Intn(20) == 0 {
			jump = int64(rng.Intn(2 * wheelSpan))
		}
		now += jump
		buf = w.PopDue(now, buf[:0])
		var wantIDs []int32
		kept := ref[:0]
		for _, e := range ref {
			if e.cycle <= now {
				wantIDs = append(wantIDs, e.id)
			} else {
				kept = append(kept, e)
			}
		}
		ref = kept
		got := append([]int32(nil), buf...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
		if len(got) != len(wantIDs) {
			t.Fatalf("step %d (now=%d): popped %d ids, want %d", step, now, len(got), len(wantIDs))
		}
		for i := range got {
			if got[i] != wantIDs[i] {
				t.Fatalf("step %d (now=%d): popped multiset %v, want %v", step, now, got, wantIDs)
			}
		}
		now++
	}
}

// TestWheelPopOrderWithinCycleRange: pops come earliest-cycle-first,
// and a pop never returns entries beyond now.
func TestWheelPopOrderEarliestFirst(t *testing.T) {
	var w Wheel
	w.Schedule(300, 3)
	w.Schedule(10, 1)
	w.Schedule(70000, 4)
	w.Schedule(150, 2)
	buf := w.PopDue(70000, nil)
	want := []int32{1, 2, 3, 4}
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
	// Past schedules clamp to the present.
	w.Schedule(5, 9)
	if c, ok := w.Earliest(); !ok || c != 70001 {
		t.Fatalf("clamped entry: Earliest=%d ok=%v, want 70001", c, ok)
	}
}
