package trace

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzTraceParse feeds arbitrary bytes to Parse, the reader behind
// gpusim -trace. The seed corpus (testdata/fuzz/FuzzTraceParse) holds
// a recorded trace, a legacy headerless one, one whose header pins a
// line size the baseline replay config does not use, and three that
// must be refused (a duplicate section, a sparse warp set, a future
// format version). The properties: parsing never panics; an accepted
// trace replays every recorded warp stream, instruction for
// instruction and coalesced as the SM would, then pads with ALU; and
// CheckLineSize agrees with the header: unverified without one,
// verified at its line size, an error at any other.
//
// Run it with: go test ./internal/trace -run '^$' -fuzz FuzzTraceParse
func FuzzTraceParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		hdr, hasHdr := tr.Header()
		lineSize := uint64(128)
		if hasHdr {
			lineSize = hdr.LineSize
		}
		if verified, err := tr.CheckLineSize(lineSize); verified != hasHdr || err != nil {
			t.Fatalf("CheckLineSize(%d) = %v, %v with header %+v (present %v)", lineSize, verified, err, hdr, hasHdr)
		}
		if verified, err := tr.CheckLineSize(lineSize + 1); verified || (err != nil) != hasHdr {
			t.Fatalf("CheckLineSize(%d) = %v, %v with header %+v (present %v)", lineSize+1, verified, err, hdr, hasHdr)
		}
		if tr.WarpsPerSM() < 1 {
			t.Fatalf("accepted trace has %d warps/SM", tr.WarpsPerSM())
		}
		// One SM past the recorded ones replays SM 0's streams.
		for sm := 0; sm <= len(tr.instrs); sm++ {
			recorded := tr.instrs[sm]
			if recorded == nil {
				recorded = tr.instrs[0]
			}
			for w := 0; w < tr.WarpsPerSM(); w++ {
				s := tr.Stream(sm, w, 0, 0)
				var in core.Instr
				for i, want := range recorded[w] {
					s.NextInto(&in)
					if !reflect.DeepEqual(in, want) {
						t.Fatalf("SM %d warp %d instruction %d replays %+v, recorded %+v", sm, w, i, in, want)
					}
					core.Coalesce(in.Lanes, lineSize)
				}
				if s.NextInto(&in); in.Kind != core.ALU {
					t.Fatalf("SM %d warp %d: exhausted stream replays %+v, want ALU", sm, w, in)
				}
			}
		}
	})
}
