package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/workload"
)

// service-mix shape. The population is every realmem-suite workload ×
// svcTiers seeds; key popularity falls off as 1/rank (Zipf, s = 1),
// and each popularity tier holds every workload once, so which
// workloads miss does not depend on the seed. The LRU holds about half
// the population, so hot keys hit, and the cold half keeps missing,
// simulating, writing and evicting.
const (
	svcWarmup     = 1000
	svcWindow     = 3000
	svcTiers      = 8
	svcClients    = 2 // closed loop, one per core of the 2-core target box
	svcPass       = 400
	svcEntryBytes = 1500 // encoded Results of one job, ≈1.4–1.5 KB
	svcSetups     = 15
	svcZipf       = 1.0
	goldenBody    = `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500}`
)

// svcKey is one request of the population.
type svcKey struct {
	workload string
	body     []byte
}

// keyGen generates request passes with a seeded, skewed popularity.
// A pass holds each key its Zipf share of svcPass times (largest
// remainder rounding) in a seeded random order: the popularity is
// realized exactly in every pass rather than sampled, so the work a
// pass does varies only with request order, not with sampling luck.
type keyGen struct {
	keys   []svcKey
	counts []int // requests per key in one pass
	rng    *rand.Rand
}

func newKeyGen(seed uint64) *keyGen {
	g := &keyGen{rng: rand.New(rand.NewPCG(seed, 0x5e47c1ce))}
	var names []string
	for _, wl := range realmemWorkloads() {
		names = append(names, wl.Name())
	}
	for tier := 0; tier < svcTiers; tier++ {
		for _, k := range g.rng.Perm(len(names)) {
			s := jobSeed(seed, 1000+len(g.keys))
			g.keys = append(g.keys, svcKey{names[k], []byte(fmt.Sprintf(
				`{"workload":%q,"seed":%d,"warmup_cycles":%d,"window_cycles":%d}`,
				names[k], s, svcWarmup, svcWindow))})
		}
	}
	g.counts = zipfCounts(len(g.keys), svcPass)
	return g
}

// zipfCounts splits n requests over k ranks in proportion to
// 1/rank^svcZipf, rounding by largest remainder so they sum to n.
func zipfCounts(k, n int) []int {
	w := make([]float64, k)
	var total float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), svcZipf)
		total += w[r]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := n
	for r := range w {
		exact := float64(n) * w[r] / total
		counts[r] = int(exact)
		left -= counts[r]
		w[r] = exact - float64(counts[r])
		rem[r] = r
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for _, r := range rem[:left] {
		counts[r]++
	}
	return counts
}

// pass returns the next pass's key indices.
func (g *keyGen) pass() []int {
	seq := make([]int, 0, svcPass)
	for k, c := range g.counts {
		for ; c > 0; c-- {
			seq = append(seq, k)
		}
	}
	g.rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// job resolves the request as the server does (api.ResolveMethodology
// against the default base config) into the simulation it asks for.
func (k svcKey) job() (simJob, exp.RunParams, error) {
	var req api.JobRequest
	if err := json.Unmarshal(k.body, &req); err != nil {
		return simJob{}, exp.RunParams{}, err
	}
	cfg, p, err := api.ResolveMethodology(config.GTX480Baseline(), req, 1, 1<<40)
	if err != nil {
		return simJob{}, exp.RunParams{}, err
	}
	wl, err := workload.ByName(req.Workload)
	if err != nil {
		return simJob{}, exp.RunParams{}, err
	}
	return simJob{k.workload, cfg, wl}, p, nil
}

// svcServer is an in-process gpusimd on a loopback port.
type svcServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// newService builds a server and returns once its handler answers
// /healthz with 200: the service's set-up, timed by setup_s. Called in
// process rather than over the loopback port, so the figure is the
// server's own set-up and not the OS scheduler's wake-up latency.
func newService() (*serve.Server, error) {
	srv, err := serve.New(serve.Options{CacheBytes: svcTiers * int64(len(realmemWorkloads())) / 2 * svcEntryBytes})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("healthz answered %d", rec.Code)
	}
	return srv, nil
}

// listen serves srv on a loopback port.
func listen(srv *serve.Server) (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// drains in-flight jobs.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Drain(ctx))
}

// reply is one completed request.
type reply struct {
	key        int
	client     int
	status     int
	source     string // X-Cache
	body       []byte
	start, end int64
	err        error
}

func post(cl *http.Client, url string, body []byte) reply {
	r := reply{start: nanotime()}
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err, r.end = err, nanotime()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = nanotime()
	r.status, r.source = resp.StatusCode, resp.Header.Get("X-Cache")
	return r
}

// closedLoop sends the requests seq with svcClients clients, each
// sending its next request only once its previous one completed.
func closedLoop(cl *http.Client, url string, keys []svcKey, seq []int) []reply {
	out := make([]reply, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				out[i] = post(cl, url+"/v1/run", keys[seq[i]].body)
				out[i].key, out[i].client = seq[i], c
			}
		}()
	}
	wg.Wait()
	return out
}

// svcState checks replies and keeps per-key reference bodies.
type svcState struct {
	rc    *runCtx
	keys  []svcKey
	ref   map[int][]byte
	instr map[int]int64
	env   map[int]api.Envelope
	sms   int
	shed  int
}

// accept checks one reply: a 200 whose body equals the key's first
// body byte for byte (hit or miss); the first body must decode to a
// valid Results snapshot whose stall stack closes.
func (st *svcState) accept(r reply) bool {
	what := "request " + st.keys[r.key].workload
	if r.err == nil && r.status != http.StatusOK {
		if r.status == http.StatusServiceUnavailable {
			st.shed++
		}
		r.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if !st.rc.op(what, r.err) {
		return false
	}
	if ref, ok := st.ref[r.key]; ok {
		return st.rc.check(fmt.Sprintf("%s (%s) body equals the key's first body", what, r.source), sameBytes(r.body, ref))
	}
	var env api.Envelope
	err := json.Unmarshal(r.body, &env)
	if err == nil {
		res, derr := exp.DecodeResults(env.Results)
		err = derr
		if err == nil {
			err = stallClosure(res, st.sms)
			st.instr[r.key] = res.Instructions
		}
	}
	if !st.rc.check(what+" body decodes to valid Results", err) {
		return false
	}
	st.ref[r.key] = r.body
	st.env[r.key] = env
	return true
}

// goldenSweep checks that the single-node bottleneck sweep answers the
// fabric golden's exact bytes.
func goldenSweep(rc *runCtx, cl *http.Client, url string) {
	want, err := os.ReadFile(filepath.Join(rc.root, "internal", "fabric", "testdata", "fabric-bottleneck.golden"))
	if err == nil {
		r := post(cl, url+"/v1/sweep/bottleneck", []byte(goldenBody))
		err = r.err
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("status %d", r.status)
		}
		if err == nil {
			err = sameBytes(r.body, want)
		}
	}
	rc.check("bottleneck sweep equals fabric-bottleneck.golden", err)
}

func runService(rc *runCtx) error {
	tr := &http.Transport{MaxIdleConnsPerHost: svcClients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	// Set up several times; the median is setup_s, and the last server
	// is the one the run uses.
	var setup sample
	var srv *serve.Server
	for i := 0; i < svcSetups; i++ {
		t0 := nanotime()
		var err error
		if srv, err = newService(); err != nil {
			return err
		}
		setup = append(setup, sec(nanotime()-t0))
	}
	s, err := listen(srv)
	if err != nil {
		return err
	}
	defer s.stop()

	gen := newKeyGen(rc.seed)
	st := &svcState{rc: rc, keys: gen.keys, ref: map[int][]byte{}, instr: map[int]int64{},
		env: map[int]api.Envelope{}, sms: config.GTX480Baseline().Core.NumSMs}
	warm := make([]int, len(gen.keys))
	for i := range warm {
		warm[i] = i
	}
	t0 := nanotime()
	for _, r := range closedLoop(cl, s.url, gen.keys, warm) {
		st.accept(r)
	}
	warmNs := nanotime() - t0
	bodies := make([][]byte, len(gen.keys))
	for i := range bodies {
		bodies[i] = st.ref[i]
	}
	rc.logf("response digest service-mix seed %d: %s", rc.seed, digest(bodies))
	goldenSweep(rc, cl, s.url)
	rc.logf("service-mix: %d keys (Zipf s=%g, exact shares per pass), %d clients closed loop, %d requests per pass, cache holds ~%d keys; warm-up pass %.2f s (untimed)",
		len(gen.keys), svcZipf, svcClients, svcPass, len(gen.keys)/2, sec(warmNs))

	var tr0 *tracer
	if rc.trace {
		tr0 = newTracer()
	}
	simsBefore, cacheBefore := s.srv.Simulations(), s.srv.Cache().Stats()
	heap := startHeapPeak()
	var sweep, rate, minst, hitMs, missMs, heapMB sample
	var misses []reply
	deadline := nanotime() + int64(rc.seconds*1e9)
	for len(sweep) == 0 || nanotime() < deadline {
		seq := gen.pass()
		p0, c0 := nanotime(), cpuNanos()
		replies := closedLoop(cl, s.url, gen.keys, seq)
		wall, cpu := nanotime()-p0, cpuNanos()-c0
		var instr, missNs int64
		for _, r := range replies {
			if !st.accept(r) {
				continue
			}
			lat := r.end - r.start
			if r.source == "hit" {
				hitMs = append(hitMs, ms(lat))
			} else {
				missMs = append(missMs, ms(lat))
				instr += st.instr[r.key]
				missNs += lat
				misses = append(misses, r)
			}
			if tr0 != nil {
				tr0.add("client /v1/run "+r.source, rowClients+r.client, r.start, r.end,
					map[string]any{"workload": st.keys[r.key].workload, "key_rank": r.key})
			}
		}
		sweep = append(sweep, sec(cpu))
		rate = append(rate, float64(len(seq))/sec(wall))
		minst = append(minst, ratio(float64(instr), sec(missNs))/1e6)
		heapMB = append(heapMB, heap.take())
	}
	heap.Stop()
	cs := s.srv.Cache().Stats()
	rc.logf("timed: %d passes, %d hits, %d misses; cache hits %d, misses %d, evictions %d, computes %d, shared %d; simulations %d; shed %d",
		len(sweep), len(hitMs), len(missMs), cs.Hits-cacheBefore.Hits, cs.Misses-cacheBefore.Misses,
		cs.Evictions-cacheBefore.Evictions, cs.Computes-cacheBefore.Computes, cs.Shared-cacheBefore.Shared,
		s.srv.Simulations()-simsBefore, st.shed)
	if len(hitMs) == 0 || len(missMs) == 0 {
		rc.check("both cache outcomes occur", fmt.Errorf("%d hits, %d misses", len(hitMs), len(missMs)))
	}

	if !rc.trace {
		rc.logf("(hit = request answered X-Cache: hit; miss = X-Cache: miss; minst_per_s = window instructions of misses per second of miss latency)")
		rc.report("setup_s", setup)
		rc.report("sweep_s", sweep)
		rc.report("minst_per_s", minst)
		rc.report("req_per_s", rate)
		rc.report("hit_p50_ms", hitMs)
		rc.set("hit_p90_ms", hitMs.quantile(0.9))
		rc.report("miss_p50_ms", missMs)
		rc.set("miss_p90_ms", missMs.quantile(0.9))
		rc.report("peak_heap_mb", heapMB)
		rc.logf("%-14s %-8s %.4g (excluded from setup_s)", "resultcache.warm_s", "s", sec(warmNs))
		return nil
	}

	rc.set("resultcache.warm_s", sec(warmNs))
	rc.set("serve.simulations", float64(s.srv.Simulations()-simsBefore))
	rc.set("serve.shed", float64(st.shed))
	rc.set("serve.hit_p99_ms", hitMs.quantile(0.99))
	rc.set("serve.miss_p99_ms", missMs.quantile(0.99))
	rc.logf("hit latency ms: %s", hitMs.summary("%.4g"))
	rc.logf("miss latency ms: %s", missMs.summary("%.4g"))
	rc.logf("p99 is reported as measured; it has ten samples beyond it only with at least 1000 samples")
	rc.set("resultcache.hit_ratio", ratio(float64(cs.Hits-cacheBefore.Hits), float64(cs.Hits-cacheBefore.Hits+cs.Misses-cacheBefore.Misses)))
	rc.set("resultcache.evictions", float64(cs.Evictions-cacheBefore.Evictions))
	rc.set("resultcache.computes", float64(cs.Computes-cacheBefore.Computes))
	rc.set("resultcache.shared", float64(cs.Shared-cacheBefore.Shared))
	directCalls(rc, tr0, st, misses)

	// Component split of the miss path: the same jobs the misses run,
	// one per workload of the first popularity tier.
	var jobs []simJob
	for _, k := range gen.keys[:len(realmemWorkloads())] {
		j, _, err := k.job()
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	_, p, err := gen.keys[0].job()
	if err != nil {
		return err
	}
	traceJobs(rc, tr0, "service-mix-jobs", jobs, p)
	return nil
}

// directCalls times the layers the requests pass through, called
// directly on the same bodies, keys and payloads, and charges the
// serving overhead of a miss: its latency minus a direct
// runner.Execute of the same job.
func directCalls(rc *runCtx, t *tracer, st *svcState, misses []reply) {
	var apiUs, getUs, putUs sample
	cache, err := resultcache.New(resultcache.Options{MaxBytes: 1 << 30})
	if !rc.op("resultcache.New", err) {
		return
	}
	keys := make([]int, 0, len(st.env))
	for k := range st.env {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	root := t.begin("direct calls", 0)
	for _, k := range keys {
		env := st.env[k]
		req, err := http.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(st.keys[k].body))
		if !rc.op("build request", err) {
			continue
		}
		apiUs = append(apiUs, float64(t.timed("api.DecodeJobRequest", root, func() { _, err = api.DecodeJobRequest(req) }))/1e3)
		rc.op("api.DecodeJobRequest", err)
		putUs = append(putUs, float64(t.timed("resultcache.Put", root, func() { cache.Put(env.Key, env.Results) }))/1e3)
		var got []byte
		var ok bool
		getUs = append(getUs, float64(t.timed("resultcache.Get", root, func() { got, ok = cache.Get(env.Key) }))/1e3)
		if !ok {
			err = fmt.Errorf("key %s missing", env.Key)
		} else {
			err = sameBytes(got, env.Results)
		}
		rc.check("resultcache Get returns the Put payload", err)
	}
	rc.set("api.decode_us", apiUs.median())
	rc.set("resultcache.put_us", putUs.median())
	rc.set("resultcache.get_us", getUs.median())

	// runner.Execute once per distinct missed key, in first-miss order.
	const maxExec = 24
	exec := map[int]float64{}
	var overhead sample
	for _, r := range misses {
		if _, done := exec[r.key]; !done && len(exec) < maxExec {
			j, p, err := st.keys[r.key].job()
			if !rc.op("resolve "+st.keys[r.key].workload, err) {
				continue
			}
			exec[r.key] = ms(t.timed("runner.Execute", root, func() {
				_, err = runner.Execute(runner.Job{Config: j.cfg, Workload: j.wl, WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles})
			}))
			rc.op("runner.Execute "+j.label, err)
		}
		if e, ok := exec[r.key]; ok {
			overhead = append(overhead, ms(r.end-r.start)-e)
		}
	}
	t.end(root, nil)
	rc.set("serve.miss_overhead_ms", overhead.median())
	rc.logf("serve miss overhead ms (miss latency minus direct runner.Execute of the same job, %d jobs): %s", len(exec), overhead.summary("%.4g"))
}
