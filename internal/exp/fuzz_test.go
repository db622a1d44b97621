package exp

import (
	"bytes"
	"testing"
)

// FuzzDecodeResults feeds arbitrary bytes to DecodeResults, the parser
// every result-cache entry and peer response goes through before it is
// served. The seed corpus (testdata/fuzz/FuzzDecodeResults) holds the
// encoded Results of a real-memory and a fixed-latency run. The
// properties: decoding never panics, and every accepted snapshot
// re-encodes to bytes that decode again and re-encode to the same
// bytes — so a cache entry's content survives a round trip through
// its own encoding.
//
// Run it with: go test ./internal/exp -run '^$' -fuzz FuzzDecodeResults
func FuzzDecodeResults(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResults(data)
		if err != nil {
			return
		}
		enc, err := EncodeResults(r)
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		again, err := DecodeResults(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot is rejected: %v\n%s", err, enc)
		}
		enc2, err := EncodeResults(again)
		if err != nil {
			t.Fatalf("re-decoded snapshot does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first: %s\nsecond: %s", enc, enc2)
		}
	})
}
