// Package sim assembles the full GPU — SIMT cores, request/response
// crossbars, L2 memory partitions and DRAM channels — and drives the
// four clock domains. It also provides the Fig. 1 apparatus: a
// fixed-latency, infinite-bandwidth memory backend that replaces the
// hierarchy below the L1.
//
// # Hot-path invariants
//
// The simulator allocates nothing in steady state, and every statistic
// of a level comes from that level's one Tick:
//
//   - All mem.Request and mem.Packet values are drawn from one
//     per-GPU free-list pool (mem.Pool) and recycled at their
//     retirement points; see the pool's ownership protocol.
//   - Run is the one time-advancement path: a plain loop of Step,
//     which ticks every component on every cycle of its clock domain
//     (sched.Domain turns each core cycle into the exact number of
//     DRAM, L2 and interconnect ticks).
//   - Below the L1 there is one tick path. A DRAM channel, L2
//     partition or crossbar with nothing to do runs its full Tick,
//     whose stages each return at once on empty queues; no early-out
//     replays its statistics.
//   - The SM's frozen path is the one fast path, kept because it is
//     measured to pay: with it disabled, gpusim on sc, cfd, nn and
//     lbm at a fixed 2000-cycle latency used about 10% more CPU
//     (2-vCPU Xeon at 2.1 GHz). An SM that is idle (only a response
//     delivery wakes it) or hit-waiting short of its oldest in-flight
//     L1 hit charges the cycle, a no-warp stall and its stall cause,
//     ticks its queue clock, and skips the rest. The SM selects
//     it from state it observes itself, and each side of that choice
//     has its workload: over the 8-benchmark suite, 28% of SM ticks
//     are frozen at a fixed 2000-cycle latency, 0.1% in real memory.
//   - Queue statistics are change-driven. Each queue owner (SM, L2
//     partition, DRAM channel, crossbar) keeps one queue.Clock and
//     ticks it at the point of its Tick where it used to sample its
//     queues; a tracked queue books each length change on Push, Pop
//     and Remove against that clock, so a queue that does not change
//     costs nothing per cycle. Its counters (ticks, non-empty ticks,
//     full ticks, summed length) equal per-tick sampling exactly,
//     which internal/queue's differential test holds against a
//     per-tick oracle. The L2 and DRAM InFullCycles counts read the
//     input queue at tick start, a different point, and stay per-tick.
//   - A blocked LDST head costs O(1) per cycle. The SM memoizes the
//     stall counter the head charged (MSHR, miss queue, reservation
//     failure or store queue) and charges it again without probing
//     the L1 or the MSHR. Only two events release it: a processed
//     response (its fill changes the line's tag state, its MSHR
//     release frees an entry, merge slots and a reservable way) and,
//     for the two miss-queue reasons, room in the miss queue. Under
//     a bypass fill policy nothing is memoized.
//   - A refused hand-off builds nothing: SendMiss asks the request
//     crossbar to Admit before it hashes the partition or draws a
//     packet, and a DRAM channel's Push checks for room before it
//     decodes the address. Refusals are counted as before.
//   - Crossbars stamp a delivered packet's ReadyAt in interconnect
//     cycles; the sinks convert it to the receiver's clock (L2 or
//     core), so a clock ratio other than 1 keeps the wire latency.
//   - In Fig. 1 mode the fixed-latency backend visits only SMs with a
//     due delivery, found on a sorted due list (sched.Wheel).
//
// Determinism is unaffected: a GPU instance owns all of its state, so
// reports are bit-identical at any experiment-engine parallelism, and
// golden-output tests (internal/exp/testdata) pin the exact bytes.
//
// # Results are pure functions
//
// A measurement window's Results is a pure function of (config,
// workload spec, seed, warmup cycles, window cycles): nothing else —
// not wall-clock time, host, goroutine schedule or worker count —
// feeds the simulation, and every pseudo-random choice flows from the
// seeded RNGs owned by the instance. This is the caching invariant
// behind internal/resultcache and cmd/gpusimd: a serialized Results
// can be stored under a canonical hash of exactly those inputs and
// replayed later as a byte-identical substitute for re-running the
// simulation. Any change that moves a measured number must bump
// resultcache.CodeVersion (and regenerate the golden reports), so
// stale cache entries stop matching instead of masquerading as
// current.
//
// # Stall taxonomy
//
// Every core cycle of every SM is attributed to exactly one cause in
// its stats.StallBreakdown — the "where do the cycles go" stack of
// Results.Stalls, sweep bottleneck and gpusim -stalls. The categories:
//
//   - issue: at least one warp instruction issued (compute progress);
//   - scoreboard: no warp could issue and no L1 miss is outstanding —
//     a pure dependency wait, e.g. on the L1 hit latency;
//   - mem-pipe: the SM's own memory pipeline (coalescer drain, LDST
//     queue, miss queue, response queue) holds the blocked work;
//   - l1-miss / icnt / l2-queue / dram-queue: L1 misses are
//     outstanding below the core. The GPU refines this memory wait to
//     the *deepest* level whose input queue is saturated this cycle —
//     a full DRAM scheduler queue outranks a full L2 access queue
//     outranks a full crossbar input buffer, because back pressure
//     propagates upward and the deepest saturated level is the root
//     cause. With no congestion anywhere the wait is pure miss-service
//     latency, charged to l1-miss (as is every memory wait in
//     fixed-latency mode, which has no hierarchy to congest).
//
// The refinement is computed lazily, at most once per core cycle
// (memStallCause), and the SM's frozen path charges its cycle to the
// same cause a full tick would, so attribution respects both the
// allocation budget and the fast path above. The sum of
// a breakdown's categories is exactly the SM's cycle count; merged
// GPU-wide it is cycles × SMs, an invariant the sim tests enforce for
// every built-in workload.
package sim

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/icnt"
	"repro/internal/l2"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// GPU is one simulated system instance.
type GPU struct {
	cfg config.Config

	sms   []*core.SM
	parts []*l2.Partition
	reqX  *icnt.Crossbar
	respX *icnt.Crossbar
	fixed *fixedBackend // non-nil in Fig. 1 mode
	pool  *mem.Pool     // request/packet free lists shared by every component

	addrMap dram.AddrMap
	nextID  uint64

	coreCycle int64
	// Derived clock domains, advanced in exact rational proportion to
	// the core clock by a phase accumulator (sched.Domain).
	icntDom, l2Dom, dramDom sched.Domain

	// stallCause memoizes the hierarchical memory-stall refinement for
	// the core cycle stallCauseAt: the deepest level whose input queue
	// is saturated. It is computed lazily — only when some SM charges
	// a memory-wait cycle — and at most once per cycle, shared by all
	// SMs for determinism.
	stallCause   stats.StallCause
	stallCauseAt int64
}

// New builds a GPU running wl under cfg. The config is validated and
// the workload's warp demand checked against the SM limit.
func New(cfg config.Config, wl workload.Workload) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl.WarpsPerSM() > cfg.Core.MaxWarpsPerSM {
		return nil, fmt.Errorf("sim: workload %s wants %d warps/SM, config allows %d",
			wl.Name(), wl.WarpsPerSM(), cfg.Core.MaxWarpsPerSM)
	}
	g := &GPU{
		cfg:  cfg,
		pool: mem.NewPool(),
		addrMap: dram.NewAddrMap(cfg.L2.LineSize, cfg.L2.Partitions,
			cfg.DRAM.RowBytes, cfg.DRAM.BanksPerChip),
		stallCauseAt: -1,
		icntDom:      sched.NewDomain(cfg.Clock.IcntMHz, cfg.Clock.CoreMHz),
		l2Dom:        sched.NewDomain(cfg.Clock.L2MHz, cfg.Clock.CoreMHz),
		dramDom:      sched.NewDomain(cfg.Clock.DRAMMHz, cfg.Clock.CoreMHz),
	}

	if cfg.FixedLatency.Enabled {
		g.fixed = &fixedBackend{latency: cfg.FixedLatency.Cycles, gpu: g}
	} else {
		g.respX = icnt.New(icnt.Config{
			Inputs: cfg.L2.Partitions, Outputs: cfg.Core.NumSMs,
			FlitBytes: cfg.Icnt.FlitSizeBytes, Lanes: cfg.Icnt.LanesPerPort,
			InputBuffer: cfg.Icnt.InputBuffer,
			WireLatency: cfg.Icnt.WireLatency, Name: "resp",
		}, respSink{g})
		g.parts = make([]*l2.Partition, cfg.L2.Partitions)
		for i := range g.parts {
			g.parts[i] = l2.New(i, cfg, g.respX, &g.nextID)
			g.parts[i].UsePool(g.pool)
		}
		g.reqX = icnt.New(icnt.Config{
			Inputs: cfg.Core.NumSMs, Outputs: cfg.L2.Partitions,
			FlitBytes: cfg.Icnt.FlitSizeBytes, Lanes: cfg.Icnt.LanesPerPort,
			InputBuffer: cfg.Icnt.InputBuffer,
			WireLatency: cfg.Icnt.WireLatency, Name: "req",
		}, reqSink{g})
	}

	g.sms = make([]*core.SM, cfg.Core.NumSMs)
	for i := range g.sms {
		streams := make([]core.InstrStream, wl.WarpsPerSM())
		for w := range streams {
			streams[w] = wl.Stream(i, w, cfg.Seed, uint64(cfg.L1.LineSize))
		}
		var backend core.Backend
		if g.fixed != nil {
			backend = g.fixed
		} else {
			backend = realBackend{g, i}
		}
		g.sms[i] = core.NewSM(i, cfg, streams, backend, &g.nextID)
		g.sms[i].UsePool(g.pool)
	}
	return g, nil
}

// reqSink delivers request packets into L2 access queues. The
// crossbar stamps ReadyAt in interconnect cycles; the access queue
// reads it in L2 cycles.
type reqSink struct{ g *GPU }

func (s reqSink) Accept(dst int, pkt *mem.Packet) bool {
	clk := s.g.cfg.Clock
	pkt.ReadyAt = rescale(pkt.ReadyAt, clk.L2MHz, clk.IcntMHz)
	return s.g.parts[dst].Accept(pkt)
}

// respSink delivers response packets into SM response queues, whose
// ReadyAt is read in core cycles.
type respSink struct{ g *GPU }

func (s respSink) Accept(dst int, pkt *mem.Packet) bool {
	clk := s.g.cfg.Clock
	pkt.ReadyAt = rescale(pkt.ReadyAt, clk.CoreMHz, clk.IcntMHz)
	return s.g.sms[dst].DeliverResponse(pkt)
}

// rescale converts cycle c of a clock at fromMHz to the first cycle of
// a clock at toMHz at or after the same instant: ceil(c·to/from). It
// is the identity when the clocks match.
func rescale(c int64, toMHz, fromMHz int) int64 {
	if toMHz == fromMHz {
		return c
	}
	to, from := int64(toMHz), int64(fromMHz)
	return (c*to + from - 1) / from
}

// realBackend routes L1 misses into the request crossbar.
type realBackend struct {
	g  *GPU
	sm int
}

// SendMiss implements core.Backend. A full crossbar input refuses the
// miss before its partition is hashed or a packet is drawn: the SM
// retries next cycle.
func (b realBackend) SendMiss(req *mem.Request) bool {
	if !b.g.reqX.Admit(b.sm) {
		return false
	}
	part := b.g.addrMap.Partition(req.LineAddr())
	req.PartitionID = part
	pkt := b.g.pool.GetPacket()
	*pkt = mem.Packet{
		Req: req, Src: b.sm, Dst: part,
		SizeBytes: mem.RequestPacketBytes(req),
	}
	return b.g.reqX.Push(b.sm, pkt)
}

// MemStallCause implements core.Backend: the GPU-wide hierarchical
// refinement, memoized per core cycle.
func (b realBackend) MemStallCause() stats.StallCause { return b.g.memStallCause() }

// memStallCause names the level responsible for memory waits this
// cycle: the deepest one whose input queue is saturated. DRAM
// saturation outranks L2 outranks interconnect — a full queue below
// is the root cause of every queue backed up above it — and with no
// congestion anywhere the wait is pure L1-miss service latency. The
// result is computed at most once per core cycle and shared by every
// SM, after the downstream clock domains have ticked (Step order), so
// attribution is deterministic at any experiment-engine parallelism.
func (g *GPU) memStallCause() stats.StallCause {
	if g.stallCauseAt == g.coreCycle {
		return g.stallCause
	}
	g.stallCauseAt = g.coreCycle
	g.stallCause = stats.StallL1Miss
	for _, p := range g.parts {
		if p.Channel().SchedFull() {
			g.stallCause = stats.StallDRAMQueue
			return g.stallCause
		}
	}
	for _, p := range g.parts {
		if p.AccessFull() {
			g.stallCause = stats.StallL2Queue
			return g.stallCause
		}
	}
	if g.reqX.AnyInputFull() || g.respX.AnyInputFull() {
		g.stallCause = stats.StallIcnt
	}
	return g.stallCause
}

// fixedBackend answers every L1 load miss after exactly latency core
// cycles with unlimited bandwidth; stores vanish instantly. This is
// the Fig. 1 "all L1 miss responses returned with a fixed and
// pre-determined latency" apparatus.
type fixedBackend struct {
	latency int64
	gpu     *GPU
	// pending is a per-SM FIFO of scheduled deliveries (constant
	// latency keeps each FIFO sorted by ReadyAt).
	pending []queue.Ring[*mem.Packet]
	// wheel holds exactly one "attention due" hint per non-empty FIFO
	// — at the head packet's ReadyAt, or at the next cycle after a
	// refused delivery — so tick visits only SMs with due heads
	// instead of scanning every FIFO every cycle. The invariant:
	// SendMiss arms a hint when it makes a FIFO non-empty; tick
	// consumes the popped hint and re-arms before every break that
	// leaves the FIFO non-empty. Wheel occupancy is therefore bounded
	// by the SM count, keeping the steady state allocation-free.
	wheel  sched.Wheel
	dueBuf []int32 // PopDue scratch
}

// MemStallCause implements core.Backend: the fixed-latency responder
// has no hierarchy to congest, so every memory wait is pure latency.
func (b *fixedBackend) MemStallCause() stats.StallCause { return stats.StallL1Miss }

// SendMiss implements core.Backend; it never back-pressures.
func (b *fixedBackend) SendMiss(req *mem.Request) bool {
	if req.Kind != mem.Load {
		// Stores vanish here: this call is the request's last
		// reference (the L1 forwards stores without MSHR tracking).
		b.gpu.pool.PutRequest(req)
		return true
	}
	if b.pending == nil {
		b.pending = make([]queue.Ring[*mem.Packet], len(b.gpu.sms))
		// One hint per SM bounds wheel occupancy.
		b.wheel.Preallocate(len(b.gpu.sms))
	}
	pkt := b.gpu.pool.GetPacket()
	*pkt = mem.Packet{
		Req: req, IsResponse: true, Dst: req.CoreID,
		SizeBytes: mem.ResponsePacketBytes(req),
		ReadyAt:   b.gpu.coreCycle + b.latency,
	}
	q := &b.pending[req.CoreID]
	if q.Empty() {
		b.wheel.Schedule(pkt.ReadyAt, int32(req.CoreID))
	}
	q.Push(pkt)
	return true
}

// tick delivers every due response (unlimited bandwidth); a full SM
// response queue retries next cycle. Only SMs with a due hint are
// visited; delivery order within an SM is FIFO, and order across SMs
// is irrelevant (disjoint response queues).
func (b *fixedBackend) tick(cycle int64) {
	// Called unconditionally (even with nothing scheduled): PopDue on
	// an empty wheel just advances its base, the clamp for Schedule.
	b.dueBuf = b.wheel.PopDue(cycle, b.dueBuf[:0])
	for _, smID := range b.dueBuf {
		q := &b.pending[smID]
		for {
			pkt, ok := q.Peek()
			if !ok {
				break
			}
			if pkt.ReadyAt > cycle {
				b.wheel.Schedule(pkt.ReadyAt, smID) // re-arm for the next head
				break
			}
			if !b.gpu.sms[smID].DeliverResponse(pkt) {
				b.wheel.Schedule(cycle+1, smID) // retry next cycle
				break
			}
			q.Pop()
		}
	}
}

// Step advances the system by one core clock cycle, ticking the other
// domains in rational proportion (e.g. DRAM at 924 MHz vs core at
// 700 MHz). Downstream domains tick first so back pressure resolves
// before new work enters.
func (g *GPU) Step() {
	if g.fixed == nil {
		c := g.dramDom.Cycle()
		for n := g.dramDom.Advance(1); n > 0; n-- {
			for _, p := range g.parts {
				p.Channel().Tick(c)
			}
			c++
		}
		c = g.l2Dom.Cycle()
		for n := g.l2Dom.Advance(1); n > 0; n-- {
			for _, p := range g.parts {
				p.Tick(c)
			}
			c++
		}
		c = g.icntDom.Cycle()
		for n := g.icntDom.Advance(1); n > 0; n-- {
			g.respX.Tick(c)
			g.reqX.Tick(c)
			c++
		}
	} else {
		g.fixed.tick(g.coreCycle)
	}
	for _, sm := range g.sms {
		sm.Tick(g.coreCycle)
	}
	g.coreCycle++
}

// Run advances the system by n core cycles, one Step at a time.
func (g *GPU) Run(n int64) {
	end := g.coreCycle + n
	for g.coreCycle < end {
		g.Step()
	}
}

// Cycle returns the current core cycle.
func (g *GPU) Cycle() int64 { return g.coreCycle }

// SMs exposes the cores (read-only use).
func (g *GPU) SMs() []*core.SM { return g.sms }

// Partitions exposes the memory partitions; empty in Fig. 1 mode.
func (g *GPU) Partitions() []*l2.Partition { return g.parts }

// ResetStats zeroes every statistic in the system, marking the start
// of a measurement window (architectural state is untouched). Call it
// after a warm-up run.
func (g *GPU) ResetStats() {
	for _, sm := range g.sms {
		sm.ResetStats()
	}
	for _, p := range g.parts {
		p.ResetStats()
	}
	if g.reqX != nil {
		g.reqX.ResetStats()
	}
	if g.respX != nil {
		g.respX.ResetStats()
	}
}
