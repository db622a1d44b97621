package exp

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The golden files under testdata/ pin the exact bytes of the CLI
// reports (they predate the hot-path refactor: free lists, idle
// skipping, buffer reuse — none of which may change a single digit).
// CI additionally regenerates them with the real binaries and
// git-diffs; these tests enforce the same bytes at the library level,
// at serial and parallel worker counts. The sweep-kind goldens are
// pinned through api.Run in sweep_test.go.

// checkGpusimGolden measures each named workload on the baseline with
// the pinned methodology (gpusim -warmup 2000 -window 5000 -seed 1)
// and compares cmd/gpusim's report against testdata/<golden>.
func checkGpusimGolden(t *testing.T, golden string, names ...string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	wls := make([]workload.Workload, len(names))
	jobs := make([]runner.Job, len(names))
	for i, n := range names {
		if wls[i], err = workload.ByName(n); err != nil {
			t.Fatal(err)
		}
		jobs[i] = runner.Job{Config: config.GTX480Baseline(), Workload: wls[i], WarmupCycles: 2000, WindowCycles: 5000}
	}
	for _, j := range []int{1, 4} {
		res, err := runner.Map(context.Background(), len(jobs), runner.Options{Parallelism: j}, func(i int) (sim.Results, error) {
			return runner.Execute(jobs[i])
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := BatchReport("baseline", 2000, 5000, wls, res); got != want {
			t.Errorf("j=%d: gpusim report drifted from %s:\n got:\n%s\nwant:\n%s", j, golden, got, want)
		}
	}
}

func TestGoldenGpusimReport(t *testing.T) {
	checkGpusimGolden(t, "gpusim-sc-cfd.golden", "sc", "cfd")
}

// TestGoldenGpusimKmeansReport pins one multi-phase scenario the same
// way the single-phase suite is pinned: the kmeans report must stay
// byte-identical at serial and parallel worker counts.
func TestGoldenGpusimKmeansReport(t *testing.T) {
	checkGpusimGolden(t, "gpusim-kmeans.golden", "kmeans")
}
