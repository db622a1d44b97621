package main

import (
	"fmt"
	"reflect"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/icnt"
	"repro/internal/l2"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The traced driver is a second copy of internal/sim's wiring: it
// assembles the GPU from the exported component constructors exactly
// as sim.New does and steps it cycle by cycle exactly as sim.GPU.Step
// does, timing each clock domain's Tick loop. It exists so the
// benchmark can split host time by component without instrumenting the
// program. equalStats is what makes the copy trustworthy: a traced job
// whose per-SM, per-partition or per-channel statistics differ from
// sim.GPU's for the same job fails the run. The per-cycle loop is the
// reference engine's (sim.EngineCycle), whose statistics the sim
// equivalence tests hold identical to the default event engine's.

// Clock domains the driver times, in Step order.
const (
	domDRAM = iota
	domL2
	domIcnt
	domCore
	numDomains
)

// domainNames are the layer names the spans and metrics use. In
// fixed-latency mode the dram, l2 and icnt spans are empty.
var domainNames = [numDomains]string{"dram", "l2", "icnt", "core"}

// driver is one traced GPU instance.
type driver struct {
	sms   []*core.SM
	parts []*l2.Partition
	reqX  *icnt.Crossbar
	respX *icnt.Crossbar
	fixed *fixedResponder
	pool  *mem.Pool

	addrMap dram.AddrMap
	nextID  uint64

	coreCycle               int64
	icntDom, l2Dom, dramDom sched.Domain

	stallCause   stats.StallCause
	stallCauseAt int64

	// rec, when non-nil, receives one span per domain per stepped
	// cycle.
	rec *domainRecorder
}

// newDriver mirrors sim.New.
func newDriver(cfg config.Config, wl workload.Workload) (*driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl.WarpsPerSM() > cfg.Core.MaxWarpsPerSM {
		return nil, fmt.Errorf("driver: workload %s wants %d warps/SM, config allows %d",
			wl.Name(), wl.WarpsPerSM(), cfg.Core.MaxWarpsPerSM)
	}
	d := &driver{
		pool: mem.NewPool(),
		addrMap: dram.NewAddrMap(cfg.L2.LineSize, cfg.L2.Partitions,
			cfg.DRAM.RowBytes, cfg.DRAM.BanksPerChip),
		stallCauseAt: -1,
		icntDom:      sched.NewDomain(cfg.Clock.IcntMHz, cfg.Clock.CoreMHz),
		l2Dom:        sched.NewDomain(cfg.Clock.L2MHz, cfg.Clock.CoreMHz),
		dramDom:      sched.NewDomain(cfg.Clock.DRAMMHz, cfg.Clock.CoreMHz),
	}
	if cfg.FixedLatency.Enabled {
		d.fixed = &fixedResponder{latency: cfg.FixedLatency.Cycles, d: d}
	} else {
		d.respX = icnt.New(icnt.Config{
			Inputs: cfg.L2.Partitions, Outputs: cfg.Core.NumSMs,
			FlitBytes: cfg.Icnt.FlitSizeBytes, Lanes: cfg.Icnt.LanesPerPort,
			InputBuffer: cfg.Icnt.InputBuffer,
			WireLatency: cfg.Icnt.WireLatency, Name: "resp",
		}, respSink{d})
		d.parts = make([]*l2.Partition, cfg.L2.Partitions)
		for i := range d.parts {
			d.parts[i] = l2.New(i, cfg, d.respX, &d.nextID)
			d.parts[i].UsePool(d.pool)
		}
		d.reqX = icnt.New(icnt.Config{
			Inputs: cfg.Core.NumSMs, Outputs: cfg.L2.Partitions,
			FlitBytes: cfg.Icnt.FlitSizeBytes, Lanes: cfg.Icnt.LanesPerPort,
			InputBuffer: cfg.Icnt.InputBuffer,
			WireLatency: cfg.Icnt.WireLatency, Name: "req",
		}, reqSink{d})
	}
	d.sms = make([]*core.SM, cfg.Core.NumSMs)
	for i := range d.sms {
		streams := make([]core.InstrStream, wl.WarpsPerSM())
		for w := range streams {
			streams[w] = wl.Stream(i, w, cfg.Seed, uint64(cfg.L1.LineSize))
		}
		var backend core.Backend
		if d.fixed != nil {
			backend = d.fixed
		} else {
			backend = realBackend{d, i}
		}
		d.sms[i] = core.NewSM(i, cfg, streams, backend, &d.nextID)
		d.sms[i].UsePool(d.pool)
	}
	return d, nil
}

type reqSink struct{ d *driver }

func (s reqSink) Accept(dst int, pkt *mem.Packet) bool { return s.d.parts[dst].Accept(pkt) }

type respSink struct{ d *driver }

func (s respSink) Accept(dst int, pkt *mem.Packet) bool { return s.d.sms[dst].DeliverResponse(pkt) }

// realBackend routes L1 misses into the request crossbar.
type realBackend struct {
	d  *driver
	sm int
}

func (b realBackend) SendMiss(req *mem.Request) bool {
	part := b.d.addrMap.Partition(req.LineAddr())
	req.PartitionID = part
	pkt := b.d.pool.GetPacket()
	*pkt = mem.Packet{
		Req: req, Src: b.sm, Dst: part,
		SizeBytes: mem.RequestPacketBytes(req),
	}
	if !b.d.reqX.Push(b.sm, pkt) {
		b.d.pool.PutPacket(pkt)
		return false
	}
	return true
}

func (b realBackend) MemStallCause() stats.StallCause { return b.d.memStallCause() }

// memStallCause mirrors sim's hierarchical refinement: the deepest
// saturated level, memoized per core cycle.
func (d *driver) memStallCause() stats.StallCause {
	if d.stallCauseAt == d.coreCycle {
		return d.stallCause
	}
	d.stallCauseAt = d.coreCycle
	d.stallCause = stats.StallL1Miss
	for _, p := range d.parts {
		if p.Channel().SchedFull() {
			d.stallCause = stats.StallDRAMQueue
			return d.stallCause
		}
	}
	for _, p := range d.parts {
		if p.AccessFull() {
			d.stallCause = stats.StallL2Queue
			return d.stallCause
		}
	}
	if d.reqX.AnyInputFull() || d.respX.AnyInputFull() {
		d.stallCause = stats.StallIcnt
	}
	return d.stallCause
}

// fixedResponder mirrors sim's Fig. 1 backend: every load miss answers
// after exactly latency core cycles, stores vanish.
type fixedResponder struct {
	latency int64
	d       *driver
	pending []queue.Ring[*mem.Packet]
	wheel   sched.Wheel
	dueBuf  []int32
}

func (b *fixedResponder) MemStallCause() stats.StallCause { return stats.StallL1Miss }

func (b *fixedResponder) SendMiss(req *mem.Request) bool {
	if req.Kind != mem.Load {
		b.d.pool.PutRequest(req)
		return true
	}
	if b.pending == nil {
		b.pending = make([]queue.Ring[*mem.Packet], len(b.d.sms))
		b.wheel.Preallocate(len(b.d.sms))
	}
	pkt := b.d.pool.GetPacket()
	*pkt = mem.Packet{
		Req: req, IsResponse: true, Dst: req.CoreID,
		SizeBytes: mem.ResponsePacketBytes(req),
		ReadyAt:   b.d.coreCycle + b.latency,
	}
	q := &b.pending[req.CoreID]
	if q.Empty() {
		b.wheel.Schedule(pkt.ReadyAt, int32(req.CoreID))
	}
	q.Push(pkt)
	return true
}

func (b *fixedResponder) tick(cycle int64) {
	b.dueBuf = b.wheel.PopDue(cycle, b.dueBuf[:0])
	for _, smID := range b.dueBuf {
		q := &b.pending[smID]
		for {
			pkt, ok := q.Peek()
			if !ok {
				break
			}
			if pkt.ReadyAt > cycle {
				b.wheel.Schedule(pkt.ReadyAt, smID)
				break
			}
			if !b.d.sms[smID].DeliverResponse(pkt) {
				b.wheel.Schedule(cycle+1, smID)
				break
			}
			q.Pop()
		}
	}
}

// step mirrors sim.GPU.Step, timing each domain's Tick loop when a
// recorder is attached. In fixed-latency mode the responder's tick is
// charged to the core domain: it stands in for the whole hierarchy
// and runs on the core clock.
func (d *driver) step() {
	rec := d.rec
	var t0, t1, t2, t3 int64
	if rec != nil {
		t0 = nanotime()
	}
	if d.fixed == nil {
		c := d.dramDom.Cycle()
		for n := d.dramDom.Advance(1); n > 0; n-- {
			for _, p := range d.parts {
				p.Channel().Tick(c)
			}
			c++
		}
		if rec != nil {
			t1 = nanotime()
		}
		c = d.l2Dom.Cycle()
		for n := d.l2Dom.Advance(1); n > 0; n-- {
			for _, p := range d.parts {
				p.Tick(c)
			}
			c++
		}
		if rec != nil {
			t2 = nanotime()
		}
		c = d.icntDom.Cycle()
		for n := d.icntDom.Advance(1); n > 0; n-- {
			d.respX.Tick(c)
			d.reqX.Tick(c)
			c++
		}
		if rec != nil {
			t3 = nanotime()
		}
	} else {
		d.fixed.tick(d.coreCycle)
		if rec != nil {
			t1, t2, t3 = t0, t0, t0
		}
	}
	for _, sm := range d.sms {
		sm.Tick(d.coreCycle)
	}
	if rec != nil {
		rec.cycle([numDomains + 1]int64{t0, t1, t2, t3, nanotime()})
	}
	d.coreCycle++
}

// run advances n core cycles.
func (d *driver) run(n int64) {
	for end := d.coreCycle + n; d.coreCycle < end; {
		d.step()
	}
}

// resetStats mirrors sim.GPU.ResetStats.
func (d *driver) resetStats() {
	for _, sm := range d.sms {
		sm.ResetStats()
	}
	for _, p := range d.parts {
		p.ResetStats()
	}
	if d.reqX != nil {
		d.reqX.ResetStats()
		d.respX.ResetStats()
	}
}

// equalStats reports the first per-SM, per-partition or per-channel
// statistic in which the driver differs from g, or nil when all agree.
func (d *driver) equalStats(g *sim.GPU) error {
	gs, gp := g.SMs(), g.Partitions()
	if len(gs) != len(d.sms) || len(gp) != len(d.parts) {
		return fmt.Errorf("shape differs: %d SMs/%d partitions vs %d/%d", len(d.sms), len(d.parts), len(gs), len(gp))
	}
	for i, sm := range d.sms {
		o := gs[i]
		ml, oml := sm.MissLatency(), o.MissLatency()
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"stats", sm.Stats(), o.Stats()},
			{"stall stack", sm.StallStack(), o.StallStack()},
			{"L1 stats", sm.CacheStats(), o.CacheStats()},
			{"MSHR stats", sm.MSHRStats(), o.MSHRStats()},
			{"miss-latency samples", ml.Count(), oml.Count()},
			{"miss-latency mean", ml.Mean(), oml.Mean()},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				return fmt.Errorf("SM %d %s: driver %+v, sim %+v", i, c.what, c.got, c.want)
			}
		}
	}
	for i, p := range d.parts {
		o := gp[i]
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"stats", p.Stats(), o.Stats()},
			{"L2 stats", p.CacheStats(), o.CacheStats()},
			{"MSHR stats", p.MSHRStats(), o.MSHRStats()},
			{"channel stats", p.Channel().Stats(), o.Channel().Stats()},
			{"access full-of-usage", p.AccessUsage().FullOfUsage(), o.AccessUsage().FullOfUsage()},
			{"sched full-of-usage", p.Channel().SchedUsage().FullOfUsage(), o.Channel().SchedUsage().FullOfUsage()},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				return fmt.Errorf("partition %d %s: driver %+v, sim %+v", i, c.what, c.got, c.want)
			}
		}
	}
	return nil
}

// packets returns the request and response packets the crossbars
// delivered since the last reset.
func (d *driver) packets() (req, resp int64) {
	if d.reqX == nil {
		return 0, 0
	}
	return d.reqX.Stats().Packets, d.respX.Stats().Packets
}
