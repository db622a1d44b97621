// Package icnt models the GPU's core↔memory interconnect as a pair of
// input-queued crossbars (one request network, one response network),
// as in GPGPU-Sim. Packets serialize into flits: a packet of S bytes
// occupies its output port for ceil(S/flit) cycles, so the Table I
// "flit size" parameter directly sets per-port bandwidth.
//
// Back pressure: an output that finishes a packet can only deliver it
// if the destination (L2 access queue or core response queue) accepts
// it; otherwise the output blocks — and because inputs are FIFO, the
// blockage propagates head-of-line into the sources. This is the
// paper's §I implication ③ ("back pressure from a congested lower
// level further throttles the cache pipeline").
package icnt

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/stats"
)

// Sink receives packets leaving the crossbar.
type Sink interface {
	// Accept offers a packet to destination port dst; a false return
	// means the destination buffer is full and the output must retry.
	Accept(dst int, pkt *mem.Packet) bool
}

// Config parameterizes one crossbar.
type Config struct {
	// Inputs and Outputs are the port counts.
	Inputs, Outputs int
	// FlitBytes is the per-cycle per-lane transfer granule.
	FlitBytes int
	// Lanes is the number of parallel flit lanes per port (link
	// speedup); 0 means 1.
	Lanes int
	// InputBuffer is the per-input packet queue depth.
	InputBuffer int
	// WireLatency is a fixed pipeline latency, in interconnect cycles,
	// stamped into each delivered packet's ReadyAt.
	WireLatency int64
	// Name prefixes queue diagnostics ("req", "resp").
	Name string
}

// Stats counts crossbar events.
type Stats struct {
	Packets          int64 // packets delivered
	Flits            int64 // flits transferred
	OutputStalls     int64 // cycles an assembled packet waited on a full sink
	InputFullRejects int64 // Push calls refused
	BusyCycles       int64 // output-port cycles spent transferring
}

// Crossbar is an input-queued crossbar with per-output round-robin
// arbitration over input heads.
type Crossbar struct {
	cfg    Config
	inputs []*queue.Queue[*mem.Packet]
	// Per-output in-flight transfer state.
	current   []*mem.Packet
	remaining []int
	rr        []int
	sink      Sink
	// busy counts packets buffered at inputs plus packets mid-transfer
	// at outputs; zero means a tick has nothing to arbitrate or move.
	busy  int
	stats Stats
}

// New builds a crossbar delivering into sink.
func New(cfg Config, sink Sink) *Crossbar {
	if cfg.Inputs <= 0 || cfg.Outputs <= 0 {
		panic(fmt.Sprintf("icnt: ports must be positive: %d×%d", cfg.Inputs, cfg.Outputs))
	}
	if cfg.FlitBytes <= 0 {
		panic(fmt.Sprintf("icnt: flit size must be positive: %d", cfg.FlitBytes))
	}
	if cfg.InputBuffer <= 0 {
		panic(fmt.Sprintf("icnt: input buffer must be positive: %d", cfg.InputBuffer))
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	c := &Crossbar{
		cfg:       cfg,
		inputs:    make([]*queue.Queue[*mem.Packet], cfg.Inputs),
		current:   make([]*mem.Packet, cfg.Outputs),
		remaining: make([]int, cfg.Outputs),
		rr:        make([]int, cfg.Outputs),
	}
	for i := range c.inputs {
		c.inputs[i] = queue.New[*mem.Packet](fmt.Sprintf("%s.in%d", cfg.Name, i), cfg.InputBuffer)
	}
	c.sink = sink
	return c
}

// Flits returns the port-cycles needed for a packet of size bytes:
// one flit per lane moves per cycle.
func (c *Crossbar) Flits(bytes int) int {
	per := c.cfg.FlitBytes * c.cfg.Lanes
	return (bytes + per - 1) / per
}

// Push injects a packet at input port src. A false return means the
// input buffer is full; the caller stalls.
func (c *Crossbar) Push(src int, pkt *mem.Packet) bool {
	if ok := c.inputs[src].Push(pkt); !ok {
		c.stats.InputFullRejects++
		return false
	}
	c.busy++
	return true
}

// InputFree returns the free slots at input port src.
func (c *Crossbar) InputFree(src int) int { return c.inputs[src].Free() }

// AnyInputFull reports whether some input buffer is at capacity right
// now — the crossbar is stalling at least one injector. The
// stall-attribution engine reads it when charging SM memory-wait
// cycles to a level.
func (c *Crossbar) AnyInputFull() bool {
	if c.busy == 0 {
		return false
	}
	for _, in := range c.inputs {
		if in.Full() {
			return true
		}
	}
	return false
}

// Tick advances the crossbar by one interconnect cycle.
func (c *Crossbar) Tick(cycle int64) {
	// With busy at zero no input holds a packet and no output a
	// transfer, so the remaining outputs have nothing to arbitrate or
	// move; an idle crossbar only samples its (empty) inputs.
	for out := 0; c.busy > 0 && out < c.cfg.Outputs; out++ {
		if c.current[out] == nil {
			c.arbitrate(out)
			// The chosen packet starts transferring this cycle.
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
				c.busy--
			} else {
				c.stats.OutputStalls++
			}
		}
	}
	for _, in := range c.inputs {
		in.Sample()
	}
}

// arbitrate picks the next input whose head packet targets out,
// starting after the last-served input (round robin).
func (c *Crossbar) arbitrate(out int) {
	n := c.cfg.Inputs
	for k := 1; k <= n; k++ {
		in := (c.rr[out] + k) % n
		pkt, ok := c.inputs[in].Peek()
		if !ok || pkt.Dst != out {
			continue
		}
		// An input head can feed only one output; skip heads already
		// being transferred is unnecessary because a popped packet
		// leaves the queue immediately.
		c.inputs[in].Pop()
		c.current[out] = pkt
		c.remaining[out] = c.Flits(pkt.SizeBytes)
		c.rr[out] = in
		return
	}
}

// Stats returns a copy of the event counters.
func (c *Crossbar) Stats() Stats { return c.stats }

// InputUsages returns the occupancy trackers of all input queues.
func (c *Crossbar) InputUsages() []*stats.QueueUsage {
	us := make([]*stats.QueueUsage, len(c.inputs))
	for i, q := range c.inputs {
		us[i] = q.Usage()
	}
	return us
}

// ResetStats zeroes the crossbar counters and input-queue trackers
// for a new measurement window.
func (c *Crossbar) ResetStats() {
	c.stats = Stats{}
	for _, in := range c.inputs {
		in.ResetUsage()
	}
}
