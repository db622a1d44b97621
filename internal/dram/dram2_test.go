package dram

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
)

func TestXorHashSpreadsStridedBanks(t *testing.T) {
	// A stride equal to linesPerRow × banks camps on one bank with
	// plain modulo interleaving; the XOR hash must spread it.
	plain := NewHashedAddrMap(128, 1, 2048, 16, false)
	hashed := NewHashedAddrMap(128, 1, 2048, 16, true)
	stride := uint64(16 * 2048) // one full row-group: same bank, next row
	plainBanks := map[int]bool{}
	hashedBanks := map[int]bool{}
	for i := 0; i < 64; i++ {
		addr := uint64(i) * stride
		plainBanks[plain.Decode(addr).Bank] = true
		hashedBanks[hashed.Decode(addr).Bank] = true
	}
	if len(plainBanks) != 1 {
		t.Fatalf("plain interleave should camp on one bank, got %d", len(plainBanks))
	}
	if len(hashedBanks) < 8 {
		t.Fatalf("xor hash spread over only %d banks", len(hashedBanks))
	}
}

func TestXorHashPreservesUniqueness(t *testing.T) {
	m := NewHashedAddrMap(128, 2, 1024, 8, true)
	type key struct {
		p int
		c Coord
	}
	seen := map[key]uint64{}
	for i := 0; i < 8192; i++ {
		addr := uint64(i) * 128
		k := key{m.Partition(addr), m.Decode(addr)}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%#x and %#x collide at %+v", prev, addr, k)
		}
		seen[k] = addr
	}
}

func TestRefreshClosesRowsAndCounts(t *testing.T) {
	cfg := dcfg()
	cfg.Timing.TREFI = 200
	cfg.Timing.TRFC = 50
	sink := &sliceSink{}
	ch := NewChannel(0, cfg, 128, 1, sink)
	ch.Push(load(1, 0))
	runCh(ch, 0, 1000)
	if ch.Stats().Refreshes < 4 {
		t.Fatalf("refreshes = %d over 1000 cycles at tREFI=200", ch.Stats().Refreshes)
	}
	if len(sink.got) != 1 {
		t.Fatalf("read lost across refresh")
	}
}

func TestRefreshDelaysAccess(t *testing.T) {
	// An access arriving during the refresh window completes later
	// than one on an idle channel.
	timed := func(trefi int64) int64 {
		cfg := dcfg()
		cfg.Timing.TREFI = trefi
		cfg.Timing.TRFC = 60
		sink := &sliceSink{}
		ch := NewChannel(0, cfg, 128, 1, sink)
		// Arrive exactly when the first refresh fires.
		for c := int64(0); c < 2000; c++ {
			if c == trefi {
				ch.Push(load(1, 0))
			}
			ch.Tick(c)
			if len(sink.got) == 1 {
				return c - trefi
			}
		}
		return -1
	}
	withRefresh := timed(100)
	noRefresh := timed(1_000_000) // effectively never
	if withRefresh <= noRefresh {
		t.Fatalf("refresh did not delay: %d vs %d", withRefresh, noRefresh)
	}
}

// cycleSink records the cycle each read is returned at.
type cycleSink struct {
	now int64
	at  []int64
}

func (s *cycleSink) Accept(*mem.Request) bool {
	s.at = append(s.at, s.now)
	return true
}

func TestTFAWThrottlesActivates(t *testing.T) {
	// Eight reads to eight banks, each needing an activate. Only four
	// activates fit in a tFAW window, so the fifth through eighth
	// cannot issue before the first activate + tFAW, and their reads
	// return no earlier than that plus activate-to-data time.
	returns := func(tfaw int64) ([]int64, config.DRAMConfig) {
		cfg := dcfg()
		cfg.SchedQueue = 16
		cfg.Timing.TFAW = tfaw
		sink := &cycleSink{}
		ch := NewChannel(0, cfg, 128, 1, sink)
		for i := 0; i < 8; i++ {
			ch.Push(load(uint64(i+1), uint64(i)*2048))
		}
		for c := int64(0); c < 3000; c++ {
			sink.now = c
			ch.Tick(c)
		}
		if len(sink.at) != 8 {
			t.Fatalf("tFAW %d: %d of 8 reads returned", tfaw, len(sink.at))
		}
		return sink.at, cfg
	}
	at, cfg := returns(200) // absurdly long window to force throttling
	tm := cfg.Timing
	actToData := tm.TRCD + tm.CL + cfg.BurstCycles(128)
	// The idle channel activates the first read's bank on the first
	// tick, which its return time shows.
	const firstAct = 0
	if at[0] != firstAct+actToData {
		t.Fatalf("first read returned at %d, want %d (activate at %d)", at[0], firstAct+actToData, firstAct)
	}
	bound := firstAct + tm.TFAW + actToData
	for i := 4; i < 8; i++ {
		if at[i] < bound {
			t.Errorf("read %d returned at %d, before first activate + tFAW allows (%d): %v", i+1, at[i], bound, at)
		}
	}
	if at[3] >= bound {
		t.Errorf("fourth read returned at %d: the first four activates fit in one tFAW window: %v", at[3], at)
	}
	// The bound is tFAW's doing: at the baseline window the fifth read
	// returns well before it.
	if base, _ := returns(dcfg().Timing.TFAW); base[4] >= bound {
		t.Errorf("baseline tFAW %d: fifth read returned at %d, not before %d", dcfg().Timing.TFAW, base[4], bound)
	}
}

func TestWritebackKind(t *testing.T) {
	if mem.Writeback.String() != "writeback" {
		t.Fatalf("kind naming")
	}
}

var _ = config.GTX480Baseline // keep import if helpers change
