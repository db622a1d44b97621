package main_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

const specsJSON = `[
  {"name":"probe-a","warps":4,"dep_dist":2,"compute_per_mem":4,
   "access_pattern":"hotset","working_set_lines":4096,"lines_per_access":2,"shared":true},
  {"name":"probe-b","warps":4,"dep_dist":1,"shared":true,
   "phases":[
     {"name":"read","instructions":300,"compute_per_mem":6,
      "access_pattern":"streaming","working_set_lines":65536,"lines_per_access":1},
     {"name":"write","instructions":100,"compute_per_mem":2,"store_frac":0.6,
      "access_pattern":"hotset","working_set_lines":2048,"lines_per_access":4,"region":1}
   ]}
]`

// TestGpusimWorkloadFile is the end-to-end acceptance path: a JSON
// spec file (one single-phase and one multi-phase spec) runs through
// the real binary and the report is byte-identical at -j 1 and -j 4.
func TestGpusimWorkloadFile(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	spec := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(spec, []byte(specsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-workload-file", spec, "-warmup", "200", "-window", "600"}
	serial, _ := clitest.Run(t, bin, append(args, "-j", "1")...)
	if !strings.Contains(serial, "workload probe-a") || !strings.Contains(serial, "workload probe-b") {
		t.Fatalf("report missing spec sections:\n%s", serial)
	}
	parallel, _ := clitest.Run(t, bin, append(args, "-j", "4")...)
	if serial != parallel {
		t.Fatalf("-workload-file report differs between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s", serial, parallel)
	}
}

// TestGpusimStallsFlag: -stalls appends one stall-stack section per
// workload after the normal report, and leaves the report itself
// untouched (the golden bytes must not depend on the flag).
func TestGpusimStallsFlag(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	args := []string{"-workload", "sc,cfd", "-warmup", "200", "-window", "600"}
	plain, _ := clitest.Run(t, bin, args...)
	withStalls, _ := clitest.Run(t, bin, append(args, "-stalls")...)
	if !strings.HasPrefix(withStalls, plain) {
		t.Fatalf("-stalls altered the base report:\n--- plain\n%s\n--- with -stalls\n%s", plain, withStalls)
	}
	extra := withStalls[len(plain):]
	for _, want := range []string{"stall stack — sc", "stall stack — cfd", "where do the cycles go", "dram-queue"} {
		if !strings.Contains(extra, want) {
			t.Fatalf("stall section missing %q:\n%s", want, extra)
		}
	}
}

// TestGpusimCacheDir: the offline result cache must never change the
// report — a cold run populates the cache, a warm run decodes from it,
// and both print exactly the bytes of an uncached run, for built-ins
// (suite + scenario) and user spec files alike.
func TestGpusimCacheDir(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	spec := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(spec, []byte(specsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	argSets := map[string][]string{
		"builtins":  {"-workload", "sc,kmeans", "-warmup", "200", "-window", "600", "-stalls"},
		"spec file": {"-workload-file", spec, "-warmup", "200", "-window", "600"},
	}
	for name, args := range argSets {
		dir := filepath.Join(t.TempDir(), "cache")
		uncached, _ := clitest.Run(t, bin, args...)
		cold, _ := clitest.Run(t, bin, append(args, "-cache-dir", dir)...)
		if cold != uncached {
			t.Fatalf("%s: cold cached run differs from uncached run:\n--- uncached\n%s\n--- cold\n%s", name, uncached, cold)
		}
		entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(entries) == 0 {
			t.Fatalf("%s: no cache entries persisted (err=%v)", name, err)
		}
		warm, _ := clitest.Run(t, bin, append(args, "-cache-dir", dir)...)
		if warm != uncached {
			t.Fatalf("%s: warm cached run differs from uncached run:\n--- uncached\n%s\n--- warm\n%s", name, uncached, warm)
		}
	}

	// A methodology change must miss, not serve the old entry.
	dir := filepath.Join(t.TempDir(), "cache")
	short, _ := clitest.Run(t, bin, "-workload", "sc", "-warmup", "200", "-window", "400", "-cache-dir", dir)
	long, _ := clitest.Run(t, bin, "-workload", "sc", "-warmup", "200", "-window", "800", "-cache-dir", dir)
	if short == long {
		t.Fatal("different windows produced identical reports — stale cache entry served")
	}

	// Corrupt entries are recomputed, and the report still matches.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatal("no entries to corrupt")
	}
	for _, e := range entries {
		if err := os.WriteFile(e, []byte(`{"Cycles":-1}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	redone, stderr := clitest.Run(t, bin, "-workload", "sc", "-warmup", "200", "-window", "800", "-cache-dir", dir)
	if redone != long {
		t.Fatal("recomputed report differs after cache corruption")
	}
	if !strings.Contains(stderr, "ignoring bad cache entry") {
		t.Fatalf("corruption not reported: %s", stderr)
	}
}

// TestGpusimTraceFlagConflicts: -trace with an explicit -workload or
// -workload-file must error instead of silently ignoring them.
func TestGpusimTraceFlagConflicts(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	stderr := clitest.RunExpectError(t, bin, "-trace", "foo.trace", "-workload", "sc")
	if !strings.Contains(stderr, "cannot be combined") {
		t.Fatalf("unexpected -trace -workload error: %s", stderr)
	}
	stderr = clitest.RunExpectError(t, bin, "-trace", "foo.trace", "-workload-file", "specs.json")
	if !strings.Contains(stderr, "cannot be combined") {
		t.Fatalf("unexpected -trace -workload-file error: %s", stderr)
	}
}

// TestGpusimTraceReplay drives the recorded-trace path through the
// real binaries: tracegen writes a headered trace, gpusim replays it
// labelled by basename, a headerless copy replays with the unverified
// note, and a mismatched config line size is a hard error.
func TestGpusimTraceReplay(t *testing.T) {
	gpusim := clitest.Build(t, "repro/cmd/gpusim")
	tracegen := clitest.Build(t, "repro/cmd/tracegen")
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "sc.trace")
	clitest.Run(t, tracegen, "-workload", "sc", "-sms", "1", "-instrs", "400", "-o", tracePath)

	out, stderr := clitest.Run(t, gpusim, "-trace", tracePath, "-warmup", "100", "-window", "200")
	if !strings.Contains(out, "workload sc.trace on") {
		t.Fatalf("trace job not labelled by basename:\n%s", out)
	}
	if strings.Contains(stderr, "unverified") {
		t.Fatalf("headered trace reported as unverified: %s", stderr)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(data), "\n")
	legacy := filepath.Join(dir, "legacy.trace")
	if err := os.WriteFile(legacy, []byte(rest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr = clitest.Run(t, gpusim, "-trace", legacy, "-warmup", "100", "-window", "200")
	if !strings.Contains(stderr, "unverified") {
		t.Fatalf("headerless trace missing the unverified note: %s", stderr)
	}

	cfgJSON, _ := clitest.Run(t, gpusim, "-dump-config")
	cfg64 := strings.ReplaceAll(cfgJSON, `"line_size": 128`, `"line_size": 64`)
	cfgPath := filepath.Join(dir, "cfg64.json")
	if err := os.WriteFile(cfgPath, []byte(cfg64), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr = clitest.RunExpectError(t, gpusim, "-trace", tracePath, "-config", cfgPath)
	if !strings.Contains(stderr, "recorded at line size 128") {
		t.Fatalf("line-size mismatch not rejected: %s", stderr)
	}
}

// TestGpusimRejectsWhatDaemonsReject: the flags go through the daemons'
// resolver, so a methodology or config file gpusimd would answer with
// 400 stops gpusim with the same message instead of printing a report
// (an all-zero one for -window 0, the baseline for a misspelled knob).
func TestGpusimRejectsWhatDaemonsReject(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	cfgJSON, _ := clitest.Run(t, bin, "-dump-config")
	// The misspelled knob sits next to the real one, so the document
	// would validate if the typo were ignored.
	typo := strings.Replace(cfgJSON, `"access_queue":`, `"acess_queue": 64, "access_queue":`, 1)
	if typo == cfgJSON {
		t.Fatal("fixture: the dumped config has no access_queue knob")
	}
	typoPath := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typoPath, []byte(typo), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"zero window":      {[]string{"-window", "0"}, "warmup must be >= 0 and window > 0"},
		"negative warmup":  {[]string{"-warmup", "-1"}, "warmup must be >= 0 and window > 0"},
		"misspelled knob":  {[]string{"-config", typoPath, "-window", "100"}, `unknown field "acess_queue"`},
		"unknown scale":    {[]string{"-scale", "warp9"}, "unknown scaling set"},
		"dump-config typo": {[]string{"-config", typoPath, "-dump-config"}, `unknown field "acess_queue"`},
	} {
		stderr := clitest.RunExpectError(t, bin, tc.args...)
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q does not mention %q", name, stderr, tc.want)
		}
	}
}
