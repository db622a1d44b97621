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
	"math/bits"

	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/stats"
)

// Sink receives packets leaving the crossbar.
type Sink interface {
	// Accept offers a packet to destination port dst; a false return
	// means the destination buffer is full and the output must retry.
	// pkt.ReadyAt arrives in interconnect cycles: a sink whose
	// receiver runs on another clock converts it first.
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
//
// Arbitration never scans the inputs. Each output keeps a head mask,
// a bitmask over inputs, and the invariant between calls is: bit i of
// ports[o].mask is set exactly when input i is non-empty and its head
// packet's Dst is o, and ports[o].heads counts those bits. Push sets a
// bit when it fills an empty input; arbitrate clears the granted
// input's bit and sets the bit of the packet that becomes its new
// head. fullInputs likewise counts the inputs at capacity.
type Crossbar struct {
	cfg    Config
	inputs []*queue.Queue[*mem.Packet]
	// ticks is the inputs' occupancy clock.
	ticks queue.Clock
	ports []outPort
	// fullInputs counts input buffers at capacity (AnyInputFull).
	fullInputs int
	sink       Sink
	stats      Stats
}

// outPort is one output's arbitration and transfer state.
type outPort struct {
	current   *mem.Packet // packet in transfer; nil when idle
	remaining int         // flit cycles left on current
	rr        int         // last input granted (round-robin pointer)
	heads     int         // set bits in mask
	// mask holds one bit per input whose head packet targets this
	// output, in words of 64 inputs: port counts are not bounded by 64.
	mask []uint64
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
		cfg:    cfg,
		inputs: make([]*queue.Queue[*mem.Packet], cfg.Inputs),
		ports:  make([]outPort, cfg.Outputs),
		sink:   sink,
	}
	for i := range c.inputs {
		c.inputs[i] = queue.NewTracked[*mem.Packet](fmt.Sprintf("%s.in%d", cfg.Name, i), cfg.InputBuffer, &c.ticks)
	}
	words := (cfg.Inputs + 63) / 64
	masks := make([]uint64, cfg.Outputs*words)
	for o := range c.ports {
		c.ports[o].mask = masks[o*words : (o+1)*words : (o+1)*words]
	}
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
	in := c.inputs[src]
	if ok := in.Push(pkt); !ok {
		c.stats.InputFullRejects++
		return false
	}
	if in.Len() == 1 {
		c.setHead(src, pkt.Dst)
	}
	if in.Full() {
		c.fullInputs++
	}
	return true
}

// Admit reports whether input src has room for one more packet. A
// refusal counts as a refused Push, so a sender can check before it
// builds the packet and the crossbar's statistics stay those of
// pushing it.
func (c *Crossbar) Admit(src int) bool {
	if c.inputs[src].Full() {
		c.stats.InputFullRejects++
		return false
	}
	return true
}

// setHead records that input in's head packet targets output out.
func (c *Crossbar) setHead(in, out int) {
	p := &c.ports[out]
	p.mask[in>>6] |= 1 << (in & 63)
	p.heads++
}

// AnyInputFull reports whether some input buffer is at capacity right
// now — the crossbar is stalling at least one injector. The
// stall-attribution engine reads it when charging SM memory-wait
// cycles to a level.
func (c *Crossbar) AnyInputFull() bool { return c.fullInputs > 0 }

// Tick advances the crossbar by one interconnect cycle.
func (c *Crossbar) Tick(cycle int64) {
	for out := range c.ports {
		p := &c.ports[out]
		if p.current == nil {
			if p.heads == 0 {
				continue
			}
			// The chosen packet starts transferring this cycle.
			c.arbitrate(p)
		}
		if p.remaining > 0 {
			p.remaining--
			c.stats.Flits++
			c.stats.BusyCycles++
		}
		if p.remaining == 0 {
			pkt := p.current
			pkt.ReadyAt = cycle + c.cfg.WireLatency
			if c.sink.Accept(out, pkt) {
				c.stats.Packets++
				p.current = nil
			} else {
				c.stats.OutputStalls++
			}
		}
	}
	c.ticks.Tick()
}

// arbitrate grants p, which has at least one head waiting, the first
// input in its mask after the last-served one, wrapping round (round
// robin), and moves that input's head packet into p's transfer slot.
func (c *Crossbar) arbitrate(p *outPort) {
	start := p.rr + 1
	if start == c.cfg.Inputs {
		start = 0
	}
	w := start >> 6
	word := p.mask[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		// heads > 0 guarantees a set bit; coming back round to the
		// start word picks up the bits below start.
		if w++; w == len(p.mask) {
			w = 0
		}
		word = p.mask[w]
	}
	in := w<<6 + bits.TrailingZeros64(word)
	p.mask[w] &^= 1 << (in & 63)
	p.heads--

	q := c.inputs[in]
	if q.Full() {
		c.fullInputs--
	}
	pkt, _ := q.Pop()
	if next, ok := q.Peek(); ok {
		c.setHead(in, next.Dst)
	}
	p.current = pkt
	p.remaining = c.Flits(pkt.SizeBytes)
	p.rr = in
}

// Stats returns a copy of the event counters.
func (c *Crossbar) Stats() Stats { return c.stats }

// InputUsages returns the occupancy counters of all input queues.
func (c *Crossbar) InputUsages() []stats.QueueUsage {
	us := make([]stats.QueueUsage, len(c.inputs))
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
