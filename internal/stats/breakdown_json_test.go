package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestStallBreakdownJSONStable: the JSON form lists causes in cause
// order with stable bytes, and round-trips exactly.
func TestStallBreakdownJSONStable(t *testing.T) {
	var b StallBreakdown
	b.cycles[StallIssue] += 10
	b.cycles[StallDRAMQueue] += 3
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"issue":10,"scoreboard":0,"mem-pipe":0,"l1-miss":0,"icnt":0,"l2-queue":0,"dram-queue":3}`
	if string(data) != want {
		t.Fatalf("unexpected encoding:\n%s\nwant\n%s", data, want)
	}
	var back StallBreakdown
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != b {
		t.Fatalf("round trip changed the breakdown: %+v vs %+v", back, b)
	}
}

// TestStallBreakdownJSONRejects: unknown causes and negative counts
// must not decode; absent causes default to zero.
func TestStallBreakdownJSONRejects(t *testing.T) {
	var b StallBreakdown
	if err := json.Unmarshal([]byte(`{"issue":1,"warp-drive":2}`), &b); err == nil ||
		!strings.Contains(err.Error(), "unknown stall cause") {
		t.Fatalf("unknown cause not rejected: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"issue":-1}`), &b); err == nil ||
		!strings.Contains(err.Error(), "negative cycles") {
		t.Fatalf("negative cycles not rejected: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"dram-queue":4}`), &b); err != nil {
		t.Fatal(err)
	}
	if b.Cycles(StallDRAMQueue) != 4 || b.Total() != 4 {
		t.Fatalf("partial decode wrong: %+v", b)
	}
}
