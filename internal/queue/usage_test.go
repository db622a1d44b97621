package queue

import (
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

// tickOracle is per-tick sampling, the statistics path the
// change-driven counters replace: at every owner tick it reads the
// queue's length.
type tickOracle struct {
	sampled, nonEmpty, full, occSum int64
}

func (o *tickOracle) sample(length, capacity int) {
	o.sampled++
	o.occSum += int64(length)
	if length > 0 {
		o.nonEmpty++
	}
	if length == capacity {
		o.full++
	}
}

func (o *tickOracle) usage(name string, capacity int) stats.QueueUsage {
	return stats.NewQueueUsage(name, capacity, o.sampled, o.nonEmpty, o.full, o.occSum)
}

// TestUsageMatchesTickOracle drives random Push, Pop, Remove, tick
// and ResetUsage sequences through queues of capacity 1, 2, 8 and 16
// sharing one clock, and requires every counter to equal per-tick
// sampling after every step.
func TestUsageMatchesTickOracle(t *testing.T) {
	caps := []int{1, 2, 8, 16}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 19))
		var clock Clock
		// Queues built after the clock has ticked count from then on.
		for k := rng.IntN(5); k > 0; k-- {
			clock.Tick()
		}
		qs := make([]*Queue[int], len(caps))
		oracles := make([]tickOracle, len(caps))
		for i, c := range caps {
			qs[i] = NewTracked[int]("q", c, &clock)
		}
		sawFull := make([]bool, len(caps))
		for step := 0; step < 20000; step++ {
			i := rng.IntN(len(qs))
			q := qs[i]
			switch op := rng.IntN(100); {
			case op < 35:
				q.Push(step)
			case op < 60:
				q.Pop()
			case op < 70:
				if q.Len() > 0 {
					q.Remove(rng.IntN(q.Len()))
				}
			case op < 99:
				clock.Tick()
				for j, q := range qs {
					oracles[j].sample(q.Len(), q.Cap())
					sawFull[j] = sawFull[j] || q.Full()
				}
			default:
				q.ResetUsage()
				oracles[i] = tickOracle{}
			}
			for j, q := range qs {
				if got, want := q.Usage(), oracles[j].usage("q", caps[j]); got != want {
					t.Fatalf("seed %d step %d: capacity %d usage %+v, per-tick sampling %+v",
						seed, step, caps[j], got, want)
				}
			}
		}
		for j, saw := range sawFull {
			if !saw {
				t.Fatalf("seed %d: capacity %d never full at a tick", seed, caps[j])
			}
		}
	}
}

func TestTrackedQueueAllocatesNothing(t *testing.T) {
	var clock Clock
	q := NewTracked[*int]("t", 8, &clock)
	v := new(int)
	var u stats.QueueUsage
	if n := testing.AllocsPerRun(100, func() {
		q.Push(v)
		q.Push(v)
		clock.Tick()
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("Push/Pop on a tracked queue: %v allocs per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { u = q.Usage() }); n != 0 {
		t.Fatalf("Usage: %v allocs per run", n)
	}
	if u.SampledCycles() == 0 {
		t.Fatalf("clock ticks not counted")
	}
}

// BenchmarkPushPopTracked is one owner tick of a tracked queue that
// holds half its capacity: one Push, one Pop and the tick.
func BenchmarkPushPopTracked(b *testing.B) {
	var clock Clock
	q := NewTracked[*int]("b", 8, &clock)
	v := new(int)
	for q.Len() < q.Cap()/2 {
		q.Push(v)
	}
	b.ReportAllocs()
	for b.Loop() {
		q.Push(v)
		q.Pop()
		clock.Tick()
	}
}
