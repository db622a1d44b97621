// Command perfbench is the repository's benchmark. It drives the
// simulator and its service through their public entry points (sim,
// runner, serve, resultcache, exp, api), checks that every simulated
// output is correct, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// tracing; with -trace 1 a separate traced run reports the per-layer
// set and writes its spans as Chrome trace-event JSON. See README.md
// in this directory for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// e2eMetric is an end-to-end metric: what a user of the simulator or
// its service sees. Bound is the share of the parent's median by which
// it may worsen before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric of the traced run; it has no
// bound.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is reported by every workload; README.md gives each
// metric's meaning per workload.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"sweep_s", "s", "lower", 0.25},
	{"minst_per_s", "Minst/s", "higher", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"hit_p90_ms", "ms", "lower", 0.25},
	{"miss_p50_ms", "ms", "lower", 0.25},
	{"miss_p90_ms", "ms", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.2},
}

// perLayer is reported by every workload's traced run. A layer the
// workload does not exercise reports 0 (README.md lists which).
var perLayer = []layerMetric{
	{"core.tick_share", "frac", "lower"},
	{"core.ns_per_inst", "ns", "lower"},
	{"core.ipc", "inst/cyc", "higher"},
	{"core.stall.issue", "frac", "higher"},
	{"core.stall.scoreboard", "frac", "lower"},
	{"core.stall.mem-pipe", "frac", "lower"},
	{"core.stall.l1-miss", "frac", "lower"},
	{"core.stall.icnt", "frac", "lower"},
	{"core.stall.l2-queue", "frac", "lower"},
	{"core.stall.dram-queue", "frac", "lower"},
	{"core.mshr_stall_cycles", "cyc", "lower"},
	{"cache.l1_miss_rate", "frac", "lower"},
	{"cache.l1_reservation_fails", "count", "lower"},
	{"icnt.tick_share", "frac", "lower"},
	{"icnt.ns_per_packet", "ns", "lower"},
	{"icnt.req_packets", "count", "higher"},
	{"icnt.resp_packets", "count", "higher"},
	{"icnt.req_in_full", "frac", "lower"},
	{"icnt.resp_in_full", "frac", "lower"},
	{"l2.tick_share", "frac", "lower"},
	{"l2.ns_per_access", "ns", "lower"},
	{"l2.accesses", "count", "higher"},
	{"l2.miss_rate", "frac", "lower"},
	{"l2.access_full_of_usage", "frac", "lower"},
	{"dram.tick_share", "frac", "lower"},
	{"dram.ns_per_request", "ns", "lower"},
	{"dram.reads", "count", "higher"},
	{"dram.writes", "count", "higher"},
	{"dram.row_hit_rate", "frac", "higher"},
	{"dram.bus_util", "frac", "higher"},
	{"dram.sched_full_of_usage", "frac", "lower"},
	{"workload.stream_build_ms", "ms", "lower"},
	{"sim.new_ms", "ms", "lower"},
	{"sim.warmup_ms", "ms", "lower"},
	{"sim.window_ms", "ms", "lower"},
	{"sim.results_us", "us", "lower"},
	{"sim.alloc_bytes_per_kcycle", "B/kcyc", "lower"},
	{"sim.avg_miss_latency_cyc", "cyc", "lower"},
	{"sim.p95_miss_latency_cyc", "cyc", "lower"},
	{"serve.miss_overhead_ms", "ms", "lower"},
	{"serve.simulations", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.hit_p99_ms", "ms", "lower"},
	{"serve.miss_p99_ms", "ms", "lower"},
	{"resultcache.get_us", "us", "lower"},
	{"resultcache.put_us", "us", "lower"},
	{"resultcache.hit_ratio", "frac", "higher"},
	{"resultcache.evictions", "count", "lower"},
	{"resultcache.computes", "count", "lower"},
	{"resultcache.shared", "count", "higher"},
	{"resultcache.warm_s", "s", "lower"},
	{"exp.encode_us", "us", "lower"},
	{"exp.decode_us", "us", "lower"},
	{"api.decode_us", "us", "lower"},
	{"trace.span_coverage", "frac", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*runCtx) error
}

var workloads = []workloadDef{
	{Name: "realmem-suite", run: runRealmem,
		Why: "paper suite + 4 multi-phase scenarios, real memory, default methodology, serial: the L2/icnt/DRAM hot path every sweep and daemon miss runs"},
	{Name: "fixed-latency", run: runFixed,
		Why: "Fig. 1 apparatus: 8 benchmarks at 4 fixed L1-miss latencies; no icnt/L2/DRAM work, so a hierarchy-only change must not move it"},
	{Name: "service-mix", run: runService,
		Why: "in-process gpusimd, 2 closed-loop clients, skewed /v1/run keys with an LRU holding half: the api/serve/resultcache/exp path"},
}

// runSeconds is how long one run measures; the manifest and the
// defaults agree on it. Within a run, passes agree to a few percent;
// between runs the shared host's speed drifts over minutes, which no
// run length removes, so runs are kept short enough that a set of them
// stays close together in time.
const runSeconds = 10

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

func buildManifest() manifest {
	return manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func encodeManifest() ([]byte, error) {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runCtx carries one run's settings and collects its report.
type runCtx struct {
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root: testdata and the trace directory
	workload string
	out      io.Writer

	metrics   map[string]metricValue
	units     map[string]string
	attempted int
	failed    int
	checksBad int
}

// set records metric name, which must be in the run's metric set.
func (rc *runCtx) set(name string, v float64) {
	unit, ok := rc.units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in this run's set")
	}
	rc.metrics[name] = metricValue{v, unit}
}

// op counts one attempted operation, failed when err is non-nil.
func (rc *runCtx) op(what string, err error) bool {
	rc.attempted++
	if err != nil {
		rc.failed++
		fmt.Fprintf(rc.out, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// check counts one correctness check as an attempted operation; a
// failed check is a failed operation and makes the run incorrect.
func (rc *runCtx) check(what string, err error) bool {
	if !rc.op("check "+what, err) {
		rc.checksBad++
		return false
	}
	return true
}

// logf prints a human-readable line; the JSON result is always last.
func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.out, format+"\n", args...)
}

// heapPeak samples the live Go heap every 5 ms until stopped and keeps
// the highest reading since the last take.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

// heapMetric is the heap reachable at the end of the last GC mark:
// what the program keeps in use, without the garbage awaiting the next
// cycle, whose size is set by the GC pacer rather than the program.
const heapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak in MB (2^20 bytes) since the previous take and
// starts a new one.
func (h *heapPeak) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

// Stop ends sampling.
func (h *heapPeak) Stop() {
	close(h.stop)
	h.wg.Wait()
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "seconds to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	manifestPath := fs.String("manifest", "", "write BENCHMARK.json to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifestPath != "" {
		data, err := encodeManifest()
		if err == nil {
			err = os.WriteFile(*manifestPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].Name == *wl {
			def = &workloads[i]
		}
	}
	if def == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	rc := &runCtx{
		seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, workload: def.Name, out: stdout,
		metrics: map[string]metricValue{}, units: map[string]string{},
	}
	if rc.trace {
		for _, m := range perLayer {
			rc.units[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			rc.units[m.Name] = m.Unit
		}
	}
	if err := def.run(rc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rc.complete(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rc.metrics))
	for n := range rc.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rc.logf("metric %-28s %14.6g %s", n, rc.metrics[n].Value, rc.metrics[n].Unit)
	}
	rc.logf("fail_frac %.4f (%d failed of %d attempted)", float64(rc.failed)/float64(rc.attempted), rc.failed, rc.attempted)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rc.checksBad == 0 && rc.failed == 0, rc.attempted, rc.failed, rc.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// complete verifies the run reported its whole metric set.
func (rc *runCtx) complete() error {
	var missing []string
	for name := range rc.units {
		if _, ok := rc.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if rc.attempted == 0 {
		return errors.New("no operation attempted")
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not reported: %v", missing)
	}
	return nil
}

func workloadNames() string {
	var s string
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// tracePath is where a traced run writes its Chrome trace.
func (rc *runCtx) tracePath() string {
	return filepath.Join(rc.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", rc.workload, rc.seed))
}
