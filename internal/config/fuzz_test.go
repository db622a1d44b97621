package config

import "testing"

// FuzzConfigFromJSON feeds arbitrary bytes to FromJSON, the one config
// decoder behind every -config file and every inline request config.
// The seed corpus (testdata/fuzz/FuzzConfigFromJSON) holds the
// baseline, every Table I scaling set, a fixed-latency config, one
// with every mitigation policy set, and a document with a misspelled
// knob. The properties: decoding never panics, and every accepted
// document survives ToJSON → FromJSON unchanged — what a daemon ships
// to a fleet worker is the architecture it accepted.
//
// Run it with: go test ./internal/config -run '^$' -fuzz FuzzConfigFromJSON
func FuzzConfigFromJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := FromJSON(data)
		if err != nil {
			return
		}
		enc, err := c.ToJSON()
		if err != nil {
			t.Fatalf("accepted config does not encode: %v", err)
		}
		back, err := FromJSON(enc)
		if err != nil {
			t.Fatalf("re-encoded config is rejected: %v\n%s", err, enc)
		}
		if back != c {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, c)
		}
	})
}
