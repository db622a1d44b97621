package icnt

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/stats"
)

// boundedSink accepts up to free slots per destination per drain call,
// modeling downstream queues that are themselves consumed over time.
type boundedSink struct {
	slots []int
	got   []*mem.Packet
}

func (s *boundedSink) Accept(dst int, pkt *mem.Packet) bool {
	if s.slots[dst] <= 0 {
		return false
	}
	s.slots[dst]--
	s.got = append(s.got, pkt)
	return true
}

// TestTrafficConservationProperty drives random packets through a
// crossbar with randomly-starved destinations and asserts that every
// injected packet is delivered exactly once, unmodified, in per-
// source order.
func TestTrafficConservationProperty(t *testing.T) {
	prop := func(seed uint64, nPkt uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		const ins, outs = 4, 3
		sink := &boundedSink{slots: make([]int, outs)}
		x := New(Config{
			Inputs: ins, Outputs: outs, FlitBytes: 8, Lanes: 2,
			InputBuffer: 4, WireLatency: 5, Name: "prop",
		}, sink)

		total := int(nPkt%40) + 1
		injected := 0
		var id uint64
		perSrcSeq := make([][]uint64, ins)
		cycle := int64(0)
		for injected < total || deliveredCount(sink) < total {
			if cycle > 200000 {
				return false // livelock
			}
			// Random injection attempts.
			if injected < total && rng.IntN(2) == 0 {
				src := rng.IntN(ins)
				id++
				pkt := &mem.Packet{
					Req: &mem.Request{ID: id, LineSize: 128},
					Src: src, Dst: rng.IntN(outs),
					SizeBytes: 8 + rng.IntN(130),
				}
				if x.Push(src, pkt) {
					injected++
					perSrcSeq[src] = append(perSrcSeq[src], id)
				}
			}
			// Randomly replenish sink capacity (starved ~half the time).
			for d := range sink.slots {
				if rng.IntN(4) == 0 {
					sink.slots[d]++
				}
			}
			x.Tick(cycle)
			cycle++
		}
		// Exactly-once delivery.
		if len(sink.got) != total {
			return false
		}
		seen := map[uint64]bool{}
		gotPerSrc := make([][]uint64, ins)
		for _, p := range sink.got {
			if seen[p.Req.ID] {
				return false
			}
			seen[p.Req.ID] = true
			gotPerSrc[p.Src] = append(gotPerSrc[p.Src], p.Req.ID)
		}
		// Per-source FIFO order is preserved (single path per pair,
		// input queues are FIFO).
		for src := range perSrcSeq {
			if len(gotPerSrc[src]) != len(perSrcSeq[src]) {
				return false
			}
			// Deliveries of one source may interleave across
			// destinations; check order within each (src,dst) pair.
			perDst := map[int][]uint64{}
			for _, p := range sink.got {
				if p.Src == src {
					perDst[p.Dst] = append(perDst[p.Dst], p.Req.ID)
				}
			}
			for _, ids := range perDst {
				for i := 1; i < len(ids); i++ {
					if ids[i] < ids[i-1] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func deliveredCount(s *boundedSink) int { return len(s.got) }

// scanCrossbar is the crossbar's original arbiter, kept as the
// reference the head-mask arbiter is checked against: every idle
// output peeks every input head, starting after its last-served input.
// Its inputs are untracked; it samples their lengths every tick, the
// per-tick statistics path the crossbar's change-driven counters
// replace.
type scanCrossbar struct {
	cfg       Config
	inputs    []*queue.Queue[*mem.Packet]
	samples   []tickSamples
	current   []*mem.Packet
	remaining []int
	rr        []int
	sink      Sink
	stats     Stats
}

// tickSamples folds one input's per-tick length samples.
type tickSamples struct {
	sampled, nonEmpty, full, occSum int64
}

func (o *tickSamples) sample(q *queue.Queue[*mem.Packet]) {
	o.sampled++
	o.occSum += int64(q.Len())
	if !q.Empty() {
		o.nonEmpty++
	}
	if q.Full() {
		o.full++
	}
}

func newScanCrossbar(cfg Config, sink Sink) *scanCrossbar {
	c := &scanCrossbar{
		cfg:       cfg,
		inputs:    make([]*queue.Queue[*mem.Packet], cfg.Inputs),
		samples:   make([]tickSamples, cfg.Inputs),
		current:   make([]*mem.Packet, cfg.Outputs),
		remaining: make([]int, cfg.Outputs),
		rr:        make([]int, cfg.Outputs),
		sink:      sink,
	}
	for i := range c.inputs {
		c.inputs[i] = queue.New[*mem.Packet]("scan", cfg.InputBuffer)
	}
	return c
}

func (c *scanCrossbar) Push(src int, pkt *mem.Packet) bool {
	if !c.inputs[src].Push(pkt) {
		c.stats.InputFullRejects++
		return false
	}
	return true
}

func (c *scanCrossbar) Tick(cycle int64) {
	for out := 0; out < c.cfg.Outputs; out++ {
		if c.current[out] == nil {
			c.arbitrate(out)
		}
		if c.current[out] == nil {
			continue
		}
		if c.remaining[out] > 0 {
			c.remaining[out]--
			c.stats.Flits++
			c.stats.BusyCycles++
		}
		if c.remaining[out] == 0 {
			pkt := c.current[out]
			pkt.ReadyAt = cycle + c.cfg.WireLatency
			if c.sink.Accept(out, pkt) {
				c.stats.Packets++
				c.current[out] = nil
			} else {
				c.stats.OutputStalls++
			}
		}
	}
	for i, in := range c.inputs {
		c.samples[i].sample(in)
	}
}

func (c *scanCrossbar) arbitrate(out int) {
	n := c.cfg.Inputs
	for k := 1; k <= n; k++ {
		in := (c.rr[out] + k) % n
		pkt, ok := c.inputs[in].Peek()
		if !ok || pkt.Dst != out {
			continue
		}
		c.inputs[in].Pop()
		c.current[out] = pkt
		per := c.cfg.FlitBytes * c.cfg.Lanes
		c.remaining[out] = (pkt.SizeBytes + per - 1) / per
		c.rr[out] = in
		return
	}
}

// grant is one arbitration decision: at cycle, output out took the
// head packet of input in.
type grant struct {
	cycle   int64
	in, out int
	id      uint64
}

// logSink is boundedSink that also records what each tick delivered
// per output, so grants that deliver within their own tick are seen.
type logSink struct {
	boundedSink
	delivered map[int]*mem.Packet
}

func (s *logSink) Accept(dst int, pkt *mem.Packet) bool {
	if !s.boundedSink.Accept(dst, pkt) {
		return false
	}
	s.delivered[dst] = pkt
	return true
}

// grantsOf reports the grants made by a tick: an output idle before
// it (before[out] nil) granted the packet it now holds or, if that
// packet finished within the tick, the one it delivered.
func grantsOf(cycle int64, before, after []*mem.Packet, delivered map[int]*mem.Packet) []grant {
	var gs []grant
	for out := range before {
		if before[out] != nil {
			continue
		}
		p := after[out]
		if p == nil {
			p = delivered[out]
		}
		if p != nil {
			gs = append(gs, grant{cycle, p.Src, out, p.Req.ID})
		}
	}
	return gs
}

// checkHeadMasks verifies the Crossbar's head-mask and full-input
// invariants against a scan of its inputs.
func checkHeadMasks(t *testing.T, x *Crossbar) {
	t.Helper()
	heads := make([]int, len(x.ports))
	full := 0
	for in, q := range x.inputs {
		if q.Full() {
			full++
		}
		head, ok := q.Peek()
		for out := range x.ports {
			set := x.ports[out].mask[in>>6]&(1<<(in&63)) != 0
			if want := ok && head.Dst == out; set != want {
				t.Fatalf("input %d output %d: mask bit %v, head targets it %v", in, out, set, want)
			}
		}
		if ok {
			heads[head.Dst]++
		}
	}
	for out, p := range x.ports {
		if p.heads != heads[out] {
			t.Fatalf("output %d: heads %d, scan finds %d", out, p.heads, heads[out])
		}
	}
	if x.fullInputs != full || x.AnyInputFull() != (full > 0) {
		t.Fatalf("fullInputs %d (AnyInputFull %v), scan finds %d full", x.fullInputs, x.AnyInputFull(), full)
	}
}

// TestHeadMaskArbitrationMatchesScan drives identical random traffic,
// with randomly starved sinks, through the head-mask crossbar and the
// linear-scan reference, and requires the same grants (cycle, input,
// output), deliveries, input-queue occupancy and Stats. The shapes
// include more than 64 inputs (multi-word masks) and more than 64
// outputs; round-robin wrap-around is checked to occur.
func TestHeadMaskArbitrationMatchesScan(t *testing.T) {
	shapes := []struct{ ins, outs int }{{15, 6}, {6, 15}, {70, 3}, {3, 70}}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(sh.ins*1000+sh.outs)))
			cfg := Config{
				Inputs: sh.ins, Outputs: sh.outs,
				FlitBytes: 4 << rng.IntN(3), Lanes: 1 + rng.IntN(3),
				InputBuffer: 1 + rng.IntN(4), WireLatency: 5, Name: "diff",
			}
			newSink := func() *logSink {
				return &logSink{boundedSink{slots: make([]int, sh.outs)}, map[int]*mem.Packet{}}
			}
			xs, rs := newSink(), newSink()
			x, ref := New(cfg, xs), newScanCrossbar(cfg, rs)
			var xGrants, refGrants []grant
			wraps, highInputs := 0, 0
			lastIn := make([]int, sh.outs)
			var id uint64
			for cycle := int64(0); cycle < 3000; cycle++ {
				for k := rng.IntN(sh.ins + 1); k > 0; k-- {
					src, dst, size := rng.IntN(sh.ins), rng.IntN(sh.outs), 8+rng.IntN(130)
					id++
					mk := func() *mem.Packet {
						return &mem.Packet{Req: &mem.Request{ID: id, LineSize: 128}, Src: src, Dst: dst, SizeBytes: size}
					}
					if got, want := x.Push(src, mk()), ref.Push(src, mk()); got != want {
						t.Fatalf("%dx%d seed %d cycle %d: Push(%d) = %v, reference %v", sh.ins, sh.outs, seed, cycle, src, got, want)
					}
				}
				for d := range xs.slots {
					if rng.IntN(3) == 0 {
						xs.slots[d]++
						rs.slots[d]++
					}
				}
				xBefore := make([]*mem.Packet, sh.outs)
				for out, p := range x.ports {
					xBefore[out] = p.current
				}
				refBefore := append([]*mem.Packet(nil), ref.current...)
				clear(xs.delivered)
				clear(rs.delivered)
				x.Tick(cycle)
				ref.Tick(cycle)
				xAfter := make([]*mem.Packet, sh.outs)
				for out, p := range x.ports {
					xAfter[out] = p.current
				}
				xg := grantsOf(cycle, xBefore, xAfter, xs.delivered)
				rg := grantsOf(cycle, refBefore, ref.current, rs.delivered)
				if !reflect.DeepEqual(xg, rg) {
					t.Fatalf("%dx%d seed %d cycle %d: grants %v, reference %v", sh.ins, sh.outs, seed, cycle, xg, rg)
				}
				for _, g := range xg {
					if g.in <= lastIn[g.out] {
						wraps++
					}
					if g.in >= 64 {
						highInputs++
					}
					lastIn[g.out] = g.in
				}
				xGrants, refGrants = append(xGrants, xg...), append(refGrants, rg...)
				if x.Stats() != ref.stats {
					t.Fatalf("%dx%d seed %d cycle %d: stats %+v, reference %+v", sh.ins, sh.outs, seed, cycle, x.Stats(), ref.stats)
				}
				checkHeadMasks(t, x)
			}
			if len(xGrants) == 0 || wraps == 0 || (sh.ins > 64 && highInputs == 0) {
				t.Fatalf("%dx%d seed %d: weak coverage: %d grants, %d wraps, %d from inputs ≥ 64",
					sh.ins, sh.outs, seed, len(xGrants), wraps, highInputs)
			}
			if !reflect.DeepEqual(xs.got, rs.got) {
				t.Fatalf("%dx%d seed %d: delivery sequences differ", sh.ins, sh.outs, seed)
			}
			for i, got := range x.InputUsages() {
				// Every counter must match per-tick sampling.
				o := ref.samples[i]
				want := stats.NewQueueUsage(got.Name, cfg.InputBuffer, o.sampled, o.nonEmpty, o.full, o.occSum)
				if got != want {
					t.Fatalf("%dx%d seed %d: input %d occupancy %+v, per-tick sampling %+v", sh.ins, sh.outs, seed, i, got, want)
				}
			}
		}
	}
}
