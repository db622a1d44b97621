package stats

import "testing"

// TestStallBreakdownMergeRoundTrip: merging per-SM breakdowns must
// preserve per-cause counts and the total, and Reset must return the
// accumulator to a zero value that merges as identity.
func TestStallBreakdownMergeRoundTrip(t *testing.T) {
	var a, b StallBreakdown
	a.cycles[StallIssue] += 100
	a.cycles[StallL1Miss] += 40
	b.cycles[StallIssue] += 60
	b.cycles[StallL2Queue] += 25

	var merged StallBreakdown
	merged.Merge(a)
	merged.Merge(b)
	if got, want := merged.Total(), a.Total()+b.Total(); got != want {
		t.Fatalf("merged total %d, want %d", got, want)
	}
	for c := StallCause(0); c < NumStallCauses; c++ {
		if got, want := merged.Cycles(c), a.Cycles(c)+b.Cycles(c); got != want {
			t.Errorf("%s: merged %d, want %d", c, got, want)
		}
	}

	a.Reset()
	if a != (StallBreakdown{}) {
		t.Fatalf("Reset left state behind: %+v", a)
	}
	before := merged
	merged.Merge(a)
	if merged != before {
		t.Fatal("merging a reset breakdown changed the accumulator")
	}
}

// TestStallBreakdownFractions: shares are of the attributed total and
// sum to 1 whenever anything was attributed.
func TestStallBreakdownFractions(t *testing.T) {
	var b StallBreakdown
	if got := b.Frac(StallIssue); got != 0 {
		t.Fatalf("empty breakdown Frac = %v, want 0", got)
	}
	b.cycles[StallIssue] += 3
	b.cycles[StallDRAMQueue] += 1
	if got := b.Frac(StallIssue); got != 0.75 {
		t.Fatalf("Frac(issue) = %v, want 0.75", got)
	}
	var sum float64
	for c := StallCause(0); c < NumStallCauses; c++ {
		sum += b.Frac(c)
	}
	if sum != 1 {
		t.Fatalf("fractions sum to %v, want 1", sum)
	}
}

// TestStallBreakdownDominant: largest bucket wins, ties break toward
// the lower cause index, deterministically.
func TestStallBreakdownDominant(t *testing.T) {
	var b StallBreakdown
	if got := b.Dominant(); got != StallIssue {
		t.Fatalf("empty Dominant = %v, want issue", got)
	}
	b.cycles[StallL2Queue] += 5
	b.cycles[StallDRAMQueue] += 5 // tie: l2-queue has the lower index
	if got := b.Dominant(); got != StallL2Queue {
		t.Fatalf("Dominant = %v, want l2-queue on a tie", got)
	}
	b.cycles[StallDRAMQueue] += 1
	if got := b.Dominant(); got != StallDRAMQueue {
		t.Fatalf("Dominant = %v, want dram-queue", got)
	}
}

// TestStallCauseStrings: every cause has a distinct report label (the
// golden tables key on them).
func TestStallCauseStrings(t *testing.T) {
	seen := map[string]StallCause{}
	for c := StallCause(0); c < NumStallCauses; c++ {
		s := c.String()
		if s == "" {
			t.Fatalf("cause %d has empty label", c)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("causes %v and %v share label %q", prev, c, s)
		}
		seen[s] = c
	}
	if got := NumStallCauses.String(); got != "cause(7)" {
		t.Fatalf("out-of-range label = %q", got)
	}
}
