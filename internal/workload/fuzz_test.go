package workload

import (
	"bytes"
	"testing"
)

// FuzzParseSpecs feeds arbitrary bytes to the -workload-file parser,
// which every sweep kind accepts user files through. The seed corpus
// (testdata/fuzz/FuzzParseSpecs) holds every built-in spec's canonical
// JSON and the README's histogram example. The properties: parsing
// never panics, and every accepted spec canonicalizes to JSON that
// re-parses to a spec with the same canonical bytes — so a spec's
// content address survives a round trip through its own encoding.
//
// Run it with: go test ./internal/workload -run '^$' -fuzz FuzzParseSpecs
func FuzzParseSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseSpecs(data)
		if err != nil {
			return
		}
		for _, sp := range specs {
			canon, err := sp.CanonicalJSON()
			if err != nil {
				t.Fatalf("accepted spec %q does not canonicalize: %v", sp.SpecName, err)
			}
			again, err := ParseSpec(canon)
			if err != nil {
				t.Fatalf("canonical JSON of %q does not re-parse: %v\n%s", sp.SpecName, err, canon)
			}
			canon2, err := again.CanonicalJSON()
			if err != nil {
				t.Fatalf("re-parsed %q does not canonicalize: %v", sp.SpecName, err)
			}
			if !bytes.Equal(canon, canon2) {
				t.Fatalf("canonical JSON is not a fixed point:\n first: %s\nsecond: %s", canon, canon2)
			}
		}
	})
}
