package main_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/clitest"
	"repro/internal/serve"
)

// build compiles the sweep binary once per test.
func build(t *testing.T) string {
	t.Helper()
	return clitest.Build(t, "repro/cmd/sweep")
}

// checkGolden pins the binary's table for one kind against the golden
// file the library tests use, at -j 1 and -j 4: the report must be
// byte-identical at any parallelism. args are the regen-golden.sh
// arguments for that file.
func checkGolden(t *testing.T, kind, golden string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	bin := build(t)
	for _, j := range []string{"1", "4"} {
		out, _ := clitest.Run(t, bin, append(append([]string{kind}, args...), "-j", j)...)
		if out != string(want) {
			t.Errorf("%s -j %s: output drifted from %s:\n got:\n%s\nwant:\n%s", kind, j, golden, out, want)
		}
	}
}

// TestAdviseGolden pins the advisor's ranked table.
func TestAdviseGolden(t *testing.T) {
	checkGolden(t, "advise", "advise.golden",
		"-workloads", "sc,kmeans", "-warmup", "2000", "-window", "5000", "-seed", "1")
}

// TestMitigationGolden pins the mitigation-policy table.
func TestMitigationGolden(t *testing.T) {
	checkGolden(t, "mitigation", "mitigation.golden",
		"-workloads", "kmeans,bfs", "-warmup", "2000", "-window", "5000", "-seed", "1")
}

// TestAdviseCSVAndJSON checks the alternative output encodings: CSV
// carries one ranked line per (workload, intervention), and -json
// emits the exact report document the sweep endpoints serve.
func TestAdviseCSVAndJSON(t *testing.T) {
	bin := build(t)
	args := []string{"advise", "-workloads", "sc", "-warmup", "100", "-window", "300"}

	csv, _ := clitest.Run(t, bin, append(args, "-csv")...)
	if !strings.HasPrefix(csv, "workload,baseline_ipc,bound,rank,intervention,") {
		t.Fatalf("unexpected CSV header:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 8 { // header + 7 interventions
		t.Fatalf("CSV should have header + 7 rows, got %d lines:\n%s", len(lines), csv)
	}

	out, _ := clitest.Run(t, bin, append(args, "-json")...)
	var rep struct {
		Rows []struct {
			Workload      string `json:"workload"`
			Dominant      string `json:"dominant"`
			Interventions []struct {
				Name string `json:"name"`
			} `json:"interventions"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Workload != "sc" || len(rep.Rows[0].Interventions) != 7 {
		t.Errorf("unexpected report shape: %s", out)
	}
}

// TestBottleneckSmoke runs the stall breakdown on a tiny window: the
// table must carry one row per requested workload and the report must
// be byte-identical at -j 1 and -j 4.
func TestBottleneckSmoke(t *testing.T) {
	bin := build(t)
	args := []string{"bottleneck", "-workloads", "sc,kmeans", "-warmup", "200", "-window", "600"}
	serial, _ := clitest.Run(t, bin, append(args, "-j", "1")...)
	for _, want := range []string{"bottleneck breakdown", "dram-queue", "sc ", "kmeans "} {
		if !strings.Contains(serial, want) {
			t.Fatalf("report missing %q:\n%s", want, serial)
		}
	}
	parallel, _ := clitest.Run(t, bin, append(args, "-j", "4")...)
	if serial != parallel {
		t.Fatalf("bottleneck report differs between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s", serial, parallel)
	}
}

// TestScenarioSweepSmoke runs the scenario sweep's default scope on a
// tiny window: one row per built-in scenario, byte-identical at -j 1
// and -j 4.
func TestScenarioSweepSmoke(t *testing.T) {
	bin := build(t)
	args := []string{"scenarios", "-warmup", "200", "-window", "600"}
	serial, _ := clitest.Run(t, bin, append(args, "-j", "1")...)
	for _, want := range []string{"scenario sweep", "kmeans", "bfs", "histo", "dct8x8"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("report missing %q:\n%s", want, serial)
		}
	}
	parallel, _ := clitest.Run(t, bin, append(args, "-j", "4")...)
	if serial != parallel {
		t.Fatalf("scenario sweep differs between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s", serial, parallel)
	}
}

// checkCSV runs a sweep with -csv on a tiny window and checks the
// header prefix and line count.
func checkCSV(t *testing.T, header string, lines int, args ...string) {
	t.Helper()
	out, _ := clitest.Run(t, build(t), append(args, "-warmup", "100", "-window", "300", "-csv")...)
	if !strings.HasPrefix(out, header) {
		t.Fatalf("%v: unexpected CSV header:\n%s", args, out)
	}
	if got := strings.Split(strings.TrimSpace(out), "\n"); len(got) != lines {
		t.Fatalf("%v: CSV should have %d lines, got %d:\n%s", args, lines, len(got), out)
	}
}

// TestBottleneckCSV checks the -csv output shape: header + one row.
func TestBottleneckCSV(t *testing.T) {
	checkCSV(t, "workload,ipc,issue_slots,", 2, "bottleneck", "-workloads", "sc")
}

// TestScenarioSweepCSV checks the -csv output shape: header + the four
// built-in scenarios.
func TestScenarioSweepCSV(t *testing.T) {
	checkCSV(t, "scenario,phases,", 5, "scenarios")
}

// unknownWorkload: a bad name must exit non-zero with a useful
// message, not fall back to the kind's default scope.
func unknownWorkload(t *testing.T, kind string) {
	t.Helper()
	stderr := clitest.RunExpectError(t, build(t), kind, "-workloads", "nosuch")
	if !strings.Contains(stderr, "nosuch") {
		t.Fatalf("%s: unexpected error for unknown workload: %s", kind, stderr)
	}
}

// TestAdviseUnknownWorkload rejects a bad advise scope.
func TestAdviseUnknownWorkload(t *testing.T) { unknownWorkload(t, "advise") }

// TestBottleneckUnknownWorkload rejects a bad bottleneck scope.
func TestBottleneckUnknownWorkload(t *testing.T) { unknownWorkload(t, "bottleneck") }

// TestUnknownKind: an unregistered kind exits non-zero and names every
// valid kind.
func TestUnknownKind(t *testing.T) {
	stderr := clitest.RunExpectError(t, build(t), "nope", "-workloads", "sc")
	if !strings.Contains(stderr, `unknown sweep kind "nope"`) {
		t.Fatalf("unexpected error for unknown kind: %s", stderr)
	}
	for _, n := range api.KindNames() {
		if !strings.Contains(stderr, n) {
			t.Errorf("unknown-kind error does not list %q: %s", n, stderr)
		}
	}
}

// TestHelpListsKinds: -h is generated from the registry, so it lists
// every registered kind with its description.
func TestHelpListsKinds(t *testing.T) {
	_, stderr := clitest.Run(t, build(t), "-h")
	for _, k := range api.Kinds() {
		if !strings.Contains(stderr, k.Name) || !strings.Contains(stderr, k.Description) {
			t.Errorf("-h does not list kind %q (%s):\n%s", k.Name, k.Description, stderr)
		}
	}
}

// TestRunKindNeedsJSON: the run kind's report is a list of measurement
// envelopes with no table form; asking for one is an error, -json
// prints one envelope per workload.
func TestRunKindNeedsJSON(t *testing.T) {
	bin := build(t)
	args := []string{"run", "-workloads", "sc,nn", "-warmup", "100", "-window", "300"}
	for _, extra := range [][]string{nil, {"-csv"}} {
		stderr := clitest.RunExpectError(t, bin, append(args, extra...)...)
		if !strings.Contains(stderr, "-json") {
			t.Errorf("run %v: error does not point at -json: %s", extra, stderr)
		}
	}
	out, _ := clitest.Run(t, bin, append(args, "-json")...)
	var envs []api.Envelope
	if err := json.Unmarshal([]byte(out), &envs); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out)
	}
	if len(envs) != 2 || envs[0].Workload != "sc" || envs[1].Workload != "nn" {
		t.Errorf("unexpected run batch: %s", out)
	}
	if stderr := clitest.RunExpectError(t, bin, "run", "-warmup", "100", "-window", "300", "-json"); !strings.Contains(stderr, "explicit workloads list") {
		t.Errorf("run without workloads: %s", stderr)
	}
}

// TestJSONMatchesDaemon: for every registered kind, -json prints
// exactly the report field gpusimd's POST /v1/sweep/{kind} returns for
// the same request.
func TestJSONMatchesDaemon(t *testing.T) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bin := build(t)

	body := `{"workloads":["kmeans","bfs"],"warmup_cycles":100,"window_cycles":300}`
	for _, k := range api.Kinds() {
		resp, err := http.Post(ts.URL+"/v1/sweep/"+k.Name, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env api.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: daemon answered %d (%v)", k.Name, resp.StatusCode, err)
		}
		out, _ := clitest.Run(t, bin, k.Name, "-workloads", "kmeans,bfs", "-warmup", "100", "-window", "300", "-json")
		if strings.TrimSuffix(out, "\n") != string(env.Report) {
			t.Errorf("%s: -json differs from the daemon's report:\n got: %s\nwant: %s", k.Name, out, env.Report)
		}
	}
}

// TestSweepWorkers: -workers runs the same sweep on a gpusimd fleet —
// one /v1/run job per grid entry, with per-job progress on stderr —
// and prints output byte-identical to the local run in every format.
func TestSweepWorkers(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := serve.New(serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	bin := build(t)
	fleet := []string{"-workers", strings.Join(urls, ",")}

	for _, tc := range []struct {
		kind, format, progress string
	}{
		{"run", "-json", "sweep: [1/1] sc on "},
		{"advise", "-json", "sweep: [8/8] "},
		{"advise", "-csv", "sweep: [8/8] "},
		{"advise", "", "sweep: [8/8] "},
	} {
		args := []string{tc.kind, "-workloads", "sc", "-warmup", "200", "-window", "500"}
		if tc.format != "" {
			args = append(args, tc.format)
		}
		want, _ := clitest.Run(t, bin, args...)
		got, progress := clitest.Run(t, bin, append(args, fleet...)...)
		if got != want {
			t.Errorf("%s %s: fleet output differs from the local run:\n got: %s\nwant: %s", tc.kind, tc.format, got, want)
		}
		if !strings.Contains(progress, tc.progress) {
			t.Errorf("%s %s: no per-job progress on stderr: %s", tc.kind, tc.format, progress)
		}
	}

	// A request the resolver rejects fails before any job is sent.
	stderr := clitest.RunExpectError(t, bin, append([]string{"bottleneck", "-workloads", "nosuch"}, fleet...)...)
	if !strings.Contains(stderr, "nosuch") || strings.Contains(stderr, "sweep: [") {
		t.Errorf("unknown workload on a fleet: %s", stderr)
	}
	stderr = clitest.RunExpectError(t, bin, "run", "-workloads", "sc", "-json", "-workers", "not-a-url")
	if !strings.Contains(stderr, "not an absolute URL") {
		t.Errorf("bad worker URL: %s", stderr)
	}
}

// writeSpecFile writes a one-spec JSON workload file for the
// -workload-file tests.
func writeSpecFile(t *testing.T) string {
	t.Helper()
	spec := filepath.Join(t.TempDir(), "spec.json")
	specJSON := `{"name":"myk","warps":4,"dep_dist":1,"compute_per_mem":2,
	  "access_pattern":"thrash","working_set_lines":4096,"lines_per_access":2,"shared":true}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLatsweepWorkloadFile: a user JSON spec sweeps through the real
// binary; given alone it replaces the kind's default suite.
func TestLatsweepWorkloadFile(t *testing.T) {
	out, _ := clitest.Run(t, build(t), "latency", "-workload-file", writeSpecFile(t),
		"-warmup", "100", "-window", "300")
	if !strings.Contains(out, "myk") {
		t.Fatalf("spec missing from sweep:\n%s", out)
	}
	if strings.Contains(out, "cfd") {
		t.Fatalf("-workload-file alone should replace the default suite:\n%s", out)
	}
}

// TestLatsweepWorkloadFileConflict: -workloads combined with
// -workload-file is a loud error (merging the two sets would hide
// typos in either flag).
func TestLatsweepWorkloadFileConflict(t *testing.T) {
	stderr := clitest.RunExpectError(t, build(t), "latency", "-workloads", "sc", "-workload-file", writeSpecFile(t))
	if !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("unexpected conflict error: %s", stderr)
	}
}

// TestOccupancySmoke: the §III kind runs its default suite on a tiny
// window and prints the occupancy table, or CSV.
func TestOccupancySmoke(t *testing.T) {
	bin := build(t)
	out, _ := clitest.Run(t, bin, "occupancy", "-warmup", "100", "-window", "300", "-j", "2")
	if !strings.Contains(out, "queue full-of-usage occupancy") || !strings.Contains(out, "average") {
		t.Fatalf("unexpected occupancy output:\n%s", out)
	}
	csv, _ := clitest.Run(t, bin, "occupancy", "-warmup", "100", "-window", "300", "-csv")
	if !strings.HasPrefix(csv, "bench,l2_access_full") {
		t.Fatalf("unexpected CSV header:\n%s", csv)
	}
}

// TestDesignspaceSmoke: the §IV kind evaluates the paper's scaling
// sets over its default suite on a tiny window and prints the speedup
// table with one column per set.
func TestDesignspaceSmoke(t *testing.T) {
	out, _ := clitest.Run(t, build(t), "designspace", "-warmup", "100", "-window", "300", "-j", "2")
	for _, want := range []string{"average", "L1+L2", "L2+DRAM", "cfd", "ss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("designspace output missing %q:\n%s", want, out)
		}
	}
}

// TestDesignspaceTable: the text report opens with Table I, the design
// space itself.
func TestDesignspaceTable(t *testing.T) {
	out, _ := clitest.Run(t, build(t), "designspace", "-workloads", "sc", "-warmup", "100", "-window", "300")
	if !strings.HasPrefix(out, "Table I") || !strings.Contains(out, "scaled") {
		t.Fatalf("unexpected Table I output:\n%s", out)
	}
}
