package icnt

import (
	"testing"

	"repro/internal/mem"
)

// recycleSink accepts every packet onto a free list, from which the
// saturating driver re-injects it: a steady-state run allocates
// nothing.
type recycleSink struct{ free []*mem.Packet }

func (s *recycleSink) Accept(_ int, p *mem.Packet) bool {
	s.free = append(s.free, p)
	return true
}

// saturated keeps every input of a crossbar full: before each tick it
// refills the inputs from the sink's free list, sending each packet to
// a pseudo-random output.
type saturated struct {
	x    *Crossbar
	sink *recycleSink
	outs int
	rng  uint64
	tick int64
}

// newSaturated builds an ins×outs crossbar with the baseline icnt
// parameters (4 B flits, 3 lanes, 2-packet inputs) carrying packets of
// size bytes, and enough packets to fill every input and output.
func newSaturated(ins, outs, size int) *saturated {
	const buf = 2
	n := ins*buf + outs
	sink := &recycleSink{free: make([]*mem.Packet, 0, n)}
	for i := 0; i < n; i++ {
		sink.free = append(sink.free, &mem.Packet{SizeBytes: size, Req: &mem.Request{LineSize: 128}})
	}
	x := New(Config{
		Inputs: ins, Outputs: outs, FlitBytes: 4, Lanes: 3,
		InputBuffer: buf, WireLatency: 25, Name: "bench",
	}, sink)
	return &saturated{x: x, sink: sink, outs: outs, rng: 0x9e3779b97f4a7c15}
}

// step refills the inputs and ticks the crossbar once.
func (s *saturated) step() {
	for in := 0; in < s.x.cfg.Inputs; in++ {
		for s.x.inputs[in].Free() > 0 && len(s.sink.free) > 0 {
			p := s.sink.free[len(s.sink.free)-1]
			s.sink.free = s.sink.free[:len(s.sink.free)-1]
			s.rng ^= s.rng << 13
			s.rng ^= s.rng >> 7
			s.rng ^= s.rng << 17
			p.Src, p.Dst = in, int(s.rng%uint64(s.outs))
			s.x.Push(in, p)
		}
	}
	s.x.Tick(s.tick)
	s.tick++
}

// crossbarShapes are the GTX480 baseline's two networks: 15 SMs send
// 8 B load requests to 6 partitions, and 6 partitions send 136 B line
// responses back to 15 SMs.
var crossbarShapes = []struct {
	name            string
	ins, outs, size int
}{
	{"req-15x6", 15, 6, mem.ControlBytes},
	{"resp-6x15", 6, 15, mem.ControlBytes + 128},
}

// BenchmarkCrossbarTick times one tick of a saturated crossbar,
// including the pushes that keep its inputs full.
func BenchmarkCrossbarTick(b *testing.B) {
	for _, sh := range crossbarShapes {
		b.Run(sh.name, func(b *testing.B) {
			s := newSaturated(sh.ins, sh.outs, sh.size)
			for i := 0; i < 1000; i++ {
				s.step()
			}
			b.ReportAllocs()
			for b.Loop() {
				s.step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
		})
	}
}

// TestSteadyStateTickAllocatesNothing pins the crossbar's hot path to
// zero allocations once its inputs are saturated.
func TestSteadyStateTickAllocatesNothing(t *testing.T) {
	for _, sh := range crossbarShapes {
		s := newSaturated(sh.ins, sh.outs, sh.size)
		for i := 0; i < 1000; i++ {
			s.step()
		}
		if avg := testing.AllocsPerRun(1000, s.step); avg != 0 {
			t.Errorf("%s: %.2f allocs per tick, want 0", sh.name, avg)
		}
	}
}
