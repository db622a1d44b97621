// Command gpusimc is the sweep coordinator daemon: it shards each sweep
// it is sent across a fleet of gpusimd workers and serves the merged
// report, byte-identical to what a single worker would have produced
// on its own.
//
// Usage:
//
//	gpusimc -workers http://hostA:8337,http://hostB:8337 [-addr :8338] [flags]
//
// Flags -j, -config, -max-attempts, -backoff, -cooldown, -max-window
// and -job-timeout tune the coordinator (see docs/operations.md). The
// base -config must match the workers': the coordinator verifies each
// response's content address and fails loudly on drift. To run one
// sweep on a fleet from the command line, use sweep <kind> -workers:
// the same executor and routing, printing the report itself.
//
// The endpoints are:
//
//	GET  /healthz            liveness + API/code version + fleet size
//	GET  /v1/workers         per-worker routing state
//	POST /v1/sweep/{kind}    any registered sweep kind (sweep -h lists them)
//
// POST bodies are the same JobRequest documents gpusimd accepts;
// "Accept: text/event-stream" streams per-job progress (see
// docs/api.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	gpgpumem "repro"
	"repro/internal/fabric"
)

func main() {
	var (
		workers  = flag.String("workers", "", "comma-separated gpusimd base URLs (required)")
		addr     = flag.String("addr", ":8338", "listen address (host:port; port 0 picks a free port)")
		jobs     = flag.Int("j", 0, "jobs in flight across the fleet (0 = four per worker)")
		cfgPath  = flag.String("config", "", "base architecture JSON, must match the workers' (default: GTX480 baseline)")
		attempts = flag.Int("max-attempts", 0, "workers tried per job before the sweep fails (0 = 3)")
		backoff  = flag.Duration("backoff", 0, "delay before a job's second attempt, doubling per retry (0 = 100ms)")
		cooldown = flag.Duration("cooldown", 0, "how long a failed worker is deprioritized (0 = 3s)")
		maxWin   = flag.Int64("max-window", 0, "largest accepted warmup+window cycles per job (0 = default)")
		jobTO    = flag.Duration("job-timeout", 0, "per-attempt timeout including simulation time (0 = 5m)")
	)
	flag.Parse()

	if *workers == "" {
		fatal(fmt.Errorf("-workers is required (comma-separated gpusimd URLs)"))
	}
	opts := fabric.Options{
		MaxAttempts:     *attempts,
		Backoff:         *backoff,
		Cooldown:        *cooldown,
		MaxParallelism:  *jobs,
		MaxWindowCycles: *maxWin,
		JobTimeout:      *jobTO,
	}
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			opts.Workers = append(opts.Workers, w)
		}
	}
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		cfg, err := gpgpumem.ConfigFromJSON(data)
		if err != nil {
			fatal(err)
		}
		opts.Config = &cfg
	}
	coord, err := fabric.New(opts)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Same readiness contract as gpusimd: tests and scripts parse the
	// bound address from this line.
	fmt.Printf("gpusimc: listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("gpusimc: %v: shutting down\n", sig)
	case err := <-errCh:
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "gpusimc: shutdown:", err)
	}
	fmt.Println("gpusimc: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusimc:", err)
	os.Exit(1)
}
