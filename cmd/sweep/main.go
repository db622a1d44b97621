// Command sweep runs one registered sweep kind locally and prints its
// report: the paper's artifacts — Fig. 1 latency tolerance with the
// §II crossover analysis, the §III queue occupancy table, Table I and
// the §IV design space — or the characterization sweeps built on them
// (the per-workload stall stack, the multi-phase scenarios against
// their fixed-mix controls, the what-if advisor, the mitigation-policy
// grid) or a plain measurement batch.
//
// Usage:
//
//	sweep <kind> [-workloads a,b | -workload-file specs.json] [-j N]
//	             [-scale S] [-seed N] [-warmup N] [-window N]
//	             [-csv | -json] [-workers URL,...]
//
// The kinds, their descriptions and their default workload scopes come
// from the internal/api registry the daemons serve; sweep -h lists
// them. The flags build the same request document a POST
// /v1/sweep/{kind} body is, resolved by the same code, so -json prints
// exactly the report payload gpusimd returns for that request. Every
// report is byte-identical at any -j. The run kind's report is a list
// of measurement envelopes with no table form: it needs -json.
//
// -workers runs the same sweep on a fleet of gpusimd workers instead of
// locally: each grid job is one /v1/run request, routed, retried and
// key-checked exactly as the gpusimc coordinator does it, with per-job
// progress on stderr. The report is byte-identical to the local run's;
// -j then caps the jobs in flight across the fleet (0 = four per
// worker).
//
// -workload-file sweeps the user-defined JSON workload spec(s) in a
// file (see the README's "Defining your own workload") instead of
// named workloads, for any kind. It is mutually exclusive with
// -workloads: merging the two sets would make a typo in either flag
// invisible. To sweep built-ins and file specs together, add the
// built-ins' specs to the file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/workload"
)

func main() {
	def := exp.DefaultRunParams()
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		names  = fs.String("workloads", "", "comma-separated workloads (default: the kind's standard set)")
		file   = fs.String("workload-file", "", "sweep the user-defined JSON workload spec(s) in this file instead")
		jobs   = fs.Int("j", 0, "parallel simulations (0 = all cores; with -workers, jobs in flight, 0 = four per worker)")
		scale  = fs.String("scale", "", "Table I scaling set: baseline|l1|l2|dram|l1l2|l2dram|all")
		seed   = fs.Uint64("seed", 1, "simulation seed")
		warmup = fs.Int64("warmup", def.WarmupCycles, "warm-up cycles before measurement")
		window = fs.Int64("window", def.WindowCycles, "measurement window in core cycles")
		csv    = fs.Bool("csv", false, "emit CSV instead of the table")
		asJSON = fs.Bool("json", false, "emit the report as compact JSON (the /v1/sweep/<kind> report payload)")
		fleet  = fs.String("workers", "", "comma-separated gpusimd base URLs to run the grid on instead of locally")
	)
	fs.Usage = func() { usage(fs) }

	// The kind may come before or after the flags.
	fs.Parse(os.Args[1:])
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	kind := fs.Arg(0)
	fs.Parse(fs.Args()[1:])
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *csv && *asJSON {
		fatal(fmt.Errorf("-csv and -json are mutually exclusive"))
	}
	if *names != "" && *file != "" {
		fatal(fmt.Errorf("-workloads and -workload-file are mutually exclusive (add built-in specs to the file to sweep both)"))
	}

	req := api.JobRequest{
		Seed: seed, Scale: *scale,
		Warmup: warmup, Window: window,
		Parallelism: *jobs,
	}
	if *names != "" {
		for _, n := range strings.Split(*names, ",") {
			req.Workloads = append(req.Workloads, strings.TrimSpace(n))
		}
	}
	var specs []workload.Spec
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		specs, err = workload.ParseSpecs(data)
		if err != nil {
			fatal(err)
		}
	}
	// A local run honours any -j and has no window cap; a fleet run
	// defaults to four jobs in flight per worker.
	var measure api.Measure = api.Local
	par := runtime.GOMAXPROCS(0)
	if *fleet != "" {
		urls := strings.Split(*fleet, ",")
		coord, err := fabric.New(fabric.Options{Workers: urls})
		if err != nil {
			fatal(err)
		}
		measure = coord.Measure(func(ev fabric.JobEvent) {
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s on %s (attempt %d, %s)\n",
				ev.Done, ev.Total, ev.Workload, ev.Worker, ev.Attempt, ev.Source)
		})
		par = 4 * len(urls)
	}
	sw, err := api.Resolve(kind, req, specs, config.GTX480Baseline(), max(*jobs, par), math.MaxInt64)
	if err != nil {
		fatal(err)
	}
	rep, err := sw.Execute(context.Background(), measure)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		data, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	table, ok := rep.(interface {
		String() string
		CSV() string
	})
	if !ok {
		fatal(fmt.Errorf("the %s kind has no table or CSV form; use -json", kind))
	}
	if *csv {
		fmt.Print(table.CSV())
	} else {
		fmt.Print(table.String())
	}
}

// usage lists the registered kinds with their descriptions and default
// scopes, then the flags.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, "usage: sweep <kind> [flags]\n\nkinds:\n")
	for _, k := range api.Kinds() {
		scope := "none, -workloads is required"
		if k.Defaults != nil {
			scope = strings.Join(k.Defaults(), ",")
		}
		fmt.Fprintf(w, "  %-11s %s\n  %-11s default workloads: %s\n", k.Name, k.Description, "", scope)
	}
	fmt.Fprintf(w, "\nflags:\n")
	fs.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
