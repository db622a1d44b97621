// Command gpusim runs one or more simulations — workloads on a
// configuration — and prints the full measurement report of each.
// With several comma-separated workloads the simulations run
// concurrently on the experiment engine's worker pool (-j), and the
// reports print in the order given.
//
// Workloads come from three sources: built-in benchmarks and
// scenarios (-workload), user-defined JSON specs (-workload-file, one
// spec object or an array; see the README's "Defining your own
// workload"), or a recorded trace (-trace). The trace source is
// exclusive: a trace pins its own instruction streams, so combining
// it with -workload or -workload-file is an error rather than a
// silent ignore.
//
// Usage:
//
//	gpusim [-workload sc | -workload sc,lbm,cfd] [-j N] [-stalls]
//	       [-workload-file specs.json] [-trace foo.trace]
//	       [-scale baseline|l1|l2|dram|l1l2|l2dram|all]
//	       [-warmup 6000] [-window 20000] [-fixed-latency -1]
//	       [-config file.json] [-dump-config] [-seed 1]
//	       [-cache-dir DIR]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The flags resolve through api.ResolveMethodology, the resolver every
// daemon request goes through: a -config file is decoded as strictly
// as an inline request config (an unknown field is an error), and a
// methodology a daemon would refuse (-window 0, a negative -warmup)
// is refused here with the same message.
//
// -cache-dir points at a gpusimd result-cache directory: jobs already
// measured (by either tool) decode from the cache instead of
// simulating, and fresh jobs are stored. Entries are checked by the
// validator gpusimd uses; a bad one is recomputed with a note on
// stderr. The printed report is byte-identical with and without the
// cache — results are pure functions of (config, spec, seed, warmup,
// window).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	gpgpumem "repro"
	"repro/internal/api"
	"repro/internal/resultcache"
	"repro/internal/runner"
)

func main() {
	var (
		wlName   = flag.String("workload", "sc", "comma-separated built-in workloads (benchmarks cfd dwt2d leukocyte nn nw sc lbm ss; scenarios kmeans bfs histo dct8x8)")
		wlFile   = flag.String("workload-file", "", "also run the user-defined JSON workload spec(s) in this file")
		jobs     = flag.Int("j", 0, "parallel simulations when several workloads are given (0 = all cores)")
		scale    = flag.String("scale", "baseline", "Table I scaling set: baseline|l1|l2|dram|l1l2|l2dram|all")
		warmup   = flag.Int64("warmup", 6000, "warm-up cycles before measurement")
		window   = flag.Int64("window", 20000, "measurement window in core cycles")
		fixedLat = flag.Int64("fixed-latency", -1, "if >= 0, replace the hierarchy below L1 with this fixed miss latency (Fig. 1 mode)")
		cfgPath  = flag.String("config", "", "load configuration from a JSON file instead of the baseline")
		dumpCfg  = flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		tracePth = flag.String("trace", "", "replay a tracegen-recorded trace instead of a built-in workload")
		stalls   = flag.Bool("stalls", false, "append each workload's stall stack (per-cycle issue-slot attribution)")
		cacheDir = flag.String("cache-dir", "", "reuse a gpusimd result cache: cached jobs skip simulation, fresh jobs are stored for next time")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	// The flags are a job request, resolved by the same code as every
	// daemon request: one resolver, one error text.
	req := api.JobRequest{
		Scale: *scale, Seed: seed, FixedLatency: fixedLat,
		Warmup: warmup, Window: window, Parallelism: *jobs,
	}
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		req.Config = data
	}
	cfg, p, err := api.ResolveMethodology(gpgpumem.DefaultConfig(), req, max(*jobs, runtime.GOMAXPROCS(0)), math.MaxInt64)
	if err != nil {
		fatal(err)
	}
	// The resolver accepted the name; this only labels the report.
	set, _ := gpgpumem.ParseScalingSet(*scale)
	if *dumpCfg {
		out, err := cfg.ToJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	// -workload has a default, so only flag.Visit can tell whether the
	// user actually asked for built-in workloads.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var wls []gpgpumem.Workload
	switch {
	case *tracePth != "":
		// A trace replays its own recorded streams; mixing it with
		// generated workloads was silently ignoring them.
		if explicit["workload"] || explicit["workload-file"] {
			fatal(fmt.Errorf("-trace replays recorded streams and cannot be combined with -workload or -workload-file"))
		}
		f, err := os.Open(*tracePth)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// Reports label the job by the file's basename, not the path.
		tr, err := gpgpumem.ParseTrace(filepath.Base(*tracePth), f)
		if err != nil {
			fatal(err)
		}
		verified, err := tr.CheckLineSize(cfg.LineSize())
		if err != nil {
			fatal(err)
		}
		if !verified {
			fmt.Fprintf(os.Stderr, "gpusim: note: %s has no header; recorded line size unverified against the config's %d\n",
				filepath.Base(*tracePth), cfg.LineSize())
		}
		wls = append(wls, tr)
	default:
		// Built-ins run when asked for explicitly, or as the default
		// when no spec file is given either.
		if explicit["workload"] || *wlFile == "" {
			for _, name := range strings.Split(*wlName, ",") {
				wl, err := gpgpumem.WorkloadByName(strings.TrimSpace(name))
				if err != nil {
					fatal(err)
				}
				wls = append(wls, wl)
			}
		}
		if *wlFile != "" {
			data, err := os.ReadFile(*wlFile)
			if err != nil {
				fatal(err)
			}
			specs, err := gpgpumem.ParseWorkloadSpecs(data)
			if err != nil {
				fatal(err)
			}
			for _, s := range specs {
				wls = append(wls, s)
			}
		}
	}
	batch := make([]gpgpumem.Job, len(wls))
	for i, wl := range wls {
		batch[i] = gpgpumem.Job{
			Config: cfg, Workload: wl,
			WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
		}
	}
	// Profiling brackets exactly the simulations, and both profiles
	// are finalized before any exit path — no fatal() runs while a
	// profile is open, so an error can't leave a truncated file.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	results, err := measure(batch, p.Parallelism, *cacheDir)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		writeHeapProfile(*memProf)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Print(gpgpumem.RenderBatchReport(set.String(), p.WarmupCycles, p.WindowCycles, wls, results))
	if *stalls {
		fmt.Print("\n" + gpgpumem.RenderBatchStallReport(wls, results))
	}
}

// measure runs the batch on the worker pool, optionally through a
// content-addressed result cache shared with gpusimd. Results are pure
// functions of (config, spec, seed, warmup, window), so a cache hit
// decodes to the exact snapshot a fresh simulation would produce and
// the rendered report is byte-identical either way. Disk entries pass
// gpusimd's validator; a bad one is deleted and recomputed. Only
// spec-backed jobs are cacheable (a -trace replay has no canonical
// description to hash).
func measure(batch []gpgpumem.Job, parallelism int, cacheDir string) ([]gpgpumem.Results, error) {
	if cacheDir == "" {
		return gpgpumem.MeasureBatch(context.Background(), batch, parallelism, nil)
	}
	cache, err := resultcache.New(resultcache.Options{Dir: cacheDir, Validate: api.ValidateEntry})
	if err != nil {
		return nil, err
	}
	results, err := runner.Map(context.Background(), len(batch), runner.Options{Parallelism: parallelism}, func(i int) (gpgpumem.Results, error) {
		job := batch[i]
		spec, ok := job.Workload.(gpgpumem.WorkloadSpec)
		if !ok {
			return runner.Execute(job)
		}
		key, err := resultcache.JobKey(job.Config, spec, job.WarmupCycles, job.WindowCycles)
		if err != nil {
			return gpgpumem.Results{}, err
		}
		val, _, err := cache.GetOrCompute(key, func() ([]byte, error) {
			res, err := runner.Execute(job)
			if err != nil {
				return nil, err
			}
			return gpgpumem.EncodeResults(res)
		})
		if err != nil {
			return gpgpumem.Results{}, err
		}
		return gpgpumem.DecodeResults(val)
	})
	if n := cache.Stats().BadEntries; n > 0 {
		fmt.Fprintf(os.Stderr, "gpusim: ignoring bad cache entry for %d job(s); recomputed\n", n)
	}
	return results, err
}

// writeHeapProfile snapshots the live heap to path. Failures are
// reported without exiting: a broken heap-profile path must not
// discard the run's results or its CPU profile.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusim: memprofile:", err)
		return
	}
	runtime.GC() // report live heap, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim: memprofile:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim: memprofile:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
