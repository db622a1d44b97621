package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/policy"
)

// TestBlockedHeadReleasedByItsEvent blocks the LDST head on each of
// the four structural reasons and releases it with the one event that
// can unblock it. While blocked, the reason's stall counter must rise
// by exactly one per cycle, charged through the memo (the other three
// stay put); the head must leave at the cycle the event takes effect,
// and not before. Under a bypass fill policy the counts are the same
// and nothing is memoized.
func TestBlockedHeadReleasedByItsEvent(t *testing.T) {
	const release = 60 // cycle before whose tick the event fires
	answer := func(i int) func(*SM, *testBackend) {
		return func(sm *SM, be *testBackend) {
			sm.DeliverResponse(&mem.Packet{Req: be.sent[i], IsResponse: true, ReadyAt: release})
		}
	}
	accept := func(_ *SM, be *testBackend) { be.refuse = false }
	cases := []struct {
		name    string
		setup   func(*config.Config)
		script  []Instr
		refuse  bool // the backend refuses misses until the event
		counter func(Stats) int64
		event   func(*SM, *testBackend)
		leaves  int64 // the cycle whose tick moves the head on
	}{
		{
			// One MSHR entry, held by the first miss.
			name:    "mshr",
			setup:   func(c *config.Config) { c.L1.MSHREntries = 1 },
			script:  []Instr{loadInstr(0x1000, 8), loadInstr(0x2000, 8)},
			counter: func(s Stats) int64 { return s.StallMSHR },
			event:   answer(0), // the fill releases the entry this cycle
			leaves:  release,
		},
		{
			// A one-entry miss queue the refusing backend never drains.
			name:    "miss-queue",
			setup:   func(c *config.Config) { c.L1.MissQueue = 1 },
			script:  []Instr{loadInstr(0x1000, 8), loadInstr(0x2000, 8)},
			refuse:  true,
			counter: func(s Stats) int64 { return s.StallMissQ },
			event:   accept, // the queue drains after this cycle's L1 access
			leaves:  release + 1,
		},
		{
			// One set of two ways, both reserved by outstanding misses.
			name:    "reservation",
			setup:   func(c *config.Config) { c.L1.Sets, c.L1.Ways = 1, 2 },
			script:  []Instr{loadInstr(0x1000, 8), loadInstr(0x2000, 8), loadInstr(0x3000, 8)},
			counter: func(s Stats) int64 { return s.StallResFail },
			event:   answer(1), // the fill makes a way evictable this cycle
			leaves:  release,
		},
		{
			name:    "store-queue",
			setup:   func(c *config.Config) { c.L1.MissQueue = 1 },
			script:  []Instr{storeInstr(0x1000), storeInstr(0x2000)},
			refuse:  true,
			counter: func(s Stats) int64 { return s.StallStoreQ },
			event:   accept,
			leaves:  release + 1,
		},
	}
	for _, tc := range cases {
		for _, fill := range []string{policy.FillAlways, policy.FillBypassLowReuse} {
			if fill == policy.FillBypassLowReuse && tc.name == "reservation" {
				continue // first-touch misses bypass: nothing reserves a way
			}
			cfg := smConfig()
			tc.setup(&cfg)
			cfg.Policy.L1Fill = fill
			sm, be, _ := newTestSM(t, cfg, 1, tc.script)
			be.refuse = tc.refuse
			var blockedAt int64 = -1
			for c := int64(0); c < release+20; c++ {
				if c == release {
					tc.event(sm, be)
				}
				before, inQ := tc.counter(sm.stats), sm.ldstQ.Len()
				sm.Tick(c)
				st := sm.stats
				delta := tc.counter(st) - before
				if other := st.StallMSHR + st.StallMissQ + st.StallResFail + st.StallStoreQ - tc.counter(st); other != 0 {
					t.Fatalf("%s/%s cycle %d: %d stalls charged to other reasons", tc.name, fill, c, other)
				}
				switch {
				case blockedAt < 0 && delta == 1:
					blockedAt = c
				case blockedAt < 0:
					if delta != 0 {
						t.Fatalf("%s/%s cycle %d: stall counter rose by %d", tc.name, fill, c, delta)
					}
					continue
				}
				blocked := c < tc.leaves
				want := int64(0)
				if blocked {
					want = 1
				}
				if delta != want {
					t.Fatalf("%s/%s cycle %d: stall counter rose by %d, want %d (blocked since %d, release at %d)",
						tc.name, fill, c, delta, want, blockedAt, tc.leaves)
				}
				if memo := sm.headStall != nil; memo != (blocked && fill == policy.FillAlways) {
					t.Fatalf("%s/%s cycle %d: memo set %v while blocked %v", tc.name, fill, c, memo, blocked)
				}
				if c == tc.leaves && !(inQ == 1 && sm.ldstQ.Len() == 0) {
					t.Fatalf("%s/%s cycle %d: head did not leave (LDST queue %d → %d)", tc.name, fill, c, inQ, sm.ldstQ.Len())
				}
			}
			if blockedAt < 0 || blockedAt > release-20 {
				t.Fatalf("%s/%s: head blocked at cycle %d, want well before %d", tc.name, fill, blockedAt, release)
			}
		}
	}
}

// missStream is a warp that loads a fresh line, then runs one ALU
// instruction, forever.
type missStream struct {
	next uint64
	alu  bool
	line [1]uint64
}

func (s *missStream) NextInto(in *Instr) {
	if s.alu {
		*in = Instr{Kind: ALU}
	} else {
		s.next += 128
		s.line[0] = s.next
		*in = Instr{Kind: Mem, Lines: s.line[:], DepDist: 64}
	}
	s.alu = !s.alu
}

// BenchmarkSMTickBackPressured times one SM tick (ns/tick) with 48
// warps of streaming loads behind a backend that refuses every miss:
// the miss queue stays full, and the LDST head stays blocked on it,
// the state the SM spends most of a real-memory run in.
func BenchmarkSMTickBackPressured(b *testing.B) {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 1
	streams := make([]InstrStream, cfg.Core.MaxWarpsPerSM)
	for w := range streams {
		streams[w] = &missStream{next: uint64(w) << 32}
	}
	var id uint64
	sm := NewSM(0, cfg, streams, &testBackend{refuse: true}, &id)
	cycle := int64(0)
	for ; cycle < 1000; cycle++ {
		sm.Tick(cycle)
	}
	if sm.stats.StallMissQ == 0 {
		b.Fatalf("setup: head never blocked on the miss queue")
	}
	b.ReportAllocs()
	for b.Loop() {
		sm.Tick(cycle)
		cycle++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
}
