package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"strings"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simJob is one simulation of a sim workload.
type simJob struct {
	label string
	cfg   config.Config
	wl    workload.Workload
}

// hitReps is how many timed reads of a job's stored result each pass
// makes: a hot result is read many times, and the hit tail needs the
// samples.
const hitReps = 8

// fixedLatencies span the Fig. 1 x-axis and beyond: at 0 the event
// engine skips no cycle, at 2000 about a fifth of them.
var fixedLatencies = []int64{0, 200, 800, 2000}

// jobSeed derives the simulator seed of job i from the benchmark seed
// (splitmix64), so the program sees only generated configs.
func jobSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// realmemWorkloads is the paper's 8-benchmark suite followed by the 4
// multi-phase scenarios.
func realmemWorkloads() []workload.Workload {
	wls := workload.Suite()
	for _, s := range workload.Scenarios() {
		wls = append(wls, s)
	}
	return wls
}

func realmemJobs(seed uint64) []simJob {
	var jobs []simJob
	for i, wl := range realmemWorkloads() {
		cfg := config.GTX480Baseline()
		cfg.Seed = jobSeed(seed, i)
		jobs = append(jobs, simJob{wl.Name(), cfg, wl})
	}
	return jobs
}

func fixedJobs(seed uint64) []simJob {
	var jobs []simJob
	for _, lat := range fixedLatencies {
		for _, wl := range workload.Suite() {
			cfg := config.GTX480Baseline()
			cfg.Seed = jobSeed(seed, len(jobs))
			cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: lat}
			jobs = append(jobs, simJob{fmt.Sprintf("%s@%d", wl.Name(), lat), cfg, wl})
		}
	}
	return jobs
}

func runRealmem(rc *runCtx) error {
	jobs := realmemJobs(rc.seed)
	var ref []sim.Results
	if rc.trace {
		agg := traceJobs(rc, newTracer(), "realmem-suite", jobs, exp.DefaultRunParams())
		ref = agg.results
		setNotExercised(rc, "serve.", "resultcache.", "api.")
	} else {
		ref = timeSim(rc, "realmem-suite", jobs)
	}
	paperComparison(rc, ref[:min(len(ref), len(workload.Suite()))])
	return nil
}

func runFixed(rc *runCtx) error {
	jobs := fixedJobs(rc.seed)
	if rc.trace {
		traceJobs(rc, newTracer(), "fixed-latency", jobs, exp.DefaultRunParams())
		setNotExercised(rc, "serve.", "resultcache.", "api.")
		return nil
	}
	timeSim(rc, "fixed-latency", jobs)
	return nil
}

// paperComparison prints the §III suite-mean queue full-of-usage next
// to the paper's figures.
func paperComparison(rc *runCtx, suite []sim.Results) {
	var l2, dramQ []float64
	for _, r := range suite {
		l2 = append(l2, r.L2AccessQueue.FullOfUsage)
		dramQ = append(dramQ, r.DRAMSchedQueue.FullOfUsage)
	}
	rc.logf("§III suite-mean full-of-usage: L2 access queue %.1f%% (paper 46%%), DRAM scheduler queue %.1f%% (paper 39%%)",
		100*stats.Mean(l2), 100*stats.Mean(dramQ))
	rc.logf("the model is unvalidated against hardware: these are simulated figures beside the paper's, not an error measurement")
}

// stallClosure checks that every SM cycle of the window is charged to
// exactly one stall cause.
func stallClosure(r sim.Results, sms int) error {
	if got, want := r.Stalls.Total(), r.Cycles*int64(sms); got != want {
		return fmt.Errorf("stall stack totals %d, want cycles × SMs = %d", got, want)
	}
	return nil
}

func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("bytes differ (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// digest hashes encoded Results in job order.
func digest(encs [][]byte) string {
	h := sha256.New()
	for _, e := range encs {
		h.Write(e)
		h.Write([]byte{'\n'})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// roundTrip is the stored-result path: decode and validate encoded
// Results, then encode them again; the bytes must not change.
func roundTrip(enc []byte) error {
	dec, err := exp.DecodeResults(enc)
	if err != nil {
		return err
	}
	again, err := exp.EncodeResults(dec)
	if err != nil {
		return err
	}
	return sameBytes(again, enc)
}

func ms(ns int64) float64  { return float64(ns) / 1e6 }
func sec(ns int64) float64 { return float64(ns) / 1e9 }

// report sets metric name to the sample's median and prints the
// sample's summary.
func (rc *runCtx) report(name string, s sample) {
	rc.set(name, s.median())
	rc.logf("%-14s %-8s %s", name, rc.units[name], s.summary("%.4g"))
}

// timeSim is the timed run of a sim workload. An untimed pass through
// runner.Execute produces the reference encodings (and lets lazy
// set-up finish); each timed pass then runs runner.Execute's steps on
// sim.GPU one by one, timing them, and must reproduce the reference
// bytes exactly.
func timeSim(rc *runCtx, name string, jobs []simJob) []sim.Results {
	p := exp.DefaultRunParams()
	ref := make([][]byte, len(jobs))
	refRes := make([]sim.Results, len(jobs))
	for i, j := range jobs {
		res, err := runner.Execute(runner.Job{Config: j.cfg, Workload: j.wl,
			WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles})
		if !rc.op("job "+j.label, err) {
			continue
		}
		enc, err := exp.EncodeResults(res)
		if !rc.op("encode "+j.label, err) {
			continue
		}
		ref[i], refRes[i] = enc, res
		rc.check("stall closure "+j.label, stallClosure(res, j.cfg.Core.NumSMs))
	}
	rc.logf("results digest %s seed %d: %s", name, rc.seed, digest(ref))

	heap := startHeapPeak()
	var sweep, wallSweep, setup, minst, rate, jobMs, hitMs, heapMB sample
	deadline := nanotime() + int64(rc.seconds*1e9)
	for len(sweep) == 0 || nanotime() < deadline {
		var setupNs, windowNs, instr int64
		w0, t0 := nanotime(), cpuNanos()
		for i, j := range jobs {
			a := cpuNanos()
			g, err := sim.New(j.cfg, j.wl)
			if !rc.op("sim.New "+j.label, err) {
				continue
			}
			b := cpuNanos()
			g.Run(p.WarmupCycles)
			g.ResetStats()
			c := cpuNanos()
			g.Run(p.WindowCycles)
			d := cpuNanos()
			res := g.Results()
			e := cpuNanos()
			setupNs += b - a
			windowNs += d - c
			instr += res.Instructions
			jobMs = append(jobMs, ms(e-a))

			enc, err := exp.EncodeResults(res)
			if !rc.op("encode "+j.label, err) {
				continue
			}
			rc.check("results equal the reference pass "+j.label, sameBytes(enc, ref[i]))
			// The first read pulls the bytes into the CPU caches, as the
			// cache's Put did for a served result; the timed reads follow.
			rc.check("stored-result round trip "+j.label, roundTrip(enc))
			for range hitReps {
				h := cpuNanos()
				err = roundTrip(enc)
				hitMs = append(hitMs, ms(cpuNanos()-h))
				rc.check("stored-result round trip "+j.label, err)
			}
		}
		pass := cpuNanos() - t0
		sweep = append(sweep, sec(pass))
		wallSweep = append(wallSweep, sec(nanotime()-w0))
		setup = append(setup, sec(setupNs))
		minst = append(minst, float64(instr)/sec(windowNs)/1e6)
		rate = append(rate, float64(len(jobs))/sec(pass))
		heapMB = append(heapMB, heap.take())
	}
	heap.Stop()

	rc.logf("%s: %d jobs per pass, %d timed passes, seed %d; times are process CPU time (miss = one job computed; hit = its stored result decoded, validated and re-encoded)",
		name, len(jobs), len(sweep), rc.seed)
	rc.report("setup_s", setup)
	rc.report("sweep_s", sweep)
	rc.logf("%-14s %-8s %s", "(wall pass)", "s", wallSweep.summary("%.4g"))
	rc.report("minst_per_s", minst)
	rc.report("req_per_s", rate)
	rc.report("hit_p50_ms", hitMs)
	rc.set("hit_p90_ms", hitMs.quantile(0.9))
	rc.report("miss_p50_ms", jobMs)
	rc.set("miss_p90_ms", jobMs.quantile(0.9))
	rc.report("peak_heap_mb", heapMB)
	return refRes
}

// layerAgg accumulates a traced run's per-layer measurements.
type layerAgg struct {
	results []sim.Results
	encs    [][]byte

	domNs                    [numDomains]int64
	driverWindowNs, simWinNs int64
	streamNs, newNs, warmNs  int64
	resultsNs                int64
	allocBytes, windowCycles int64
	encodeUs, decodeUs       sample
}

const allocMetric = "/gc/heap/allocs:bytes"

func heapAllocs() int64 {
	s := []metrics.Sample{{Name: allocMetric}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// keptCycles is how many window cycles per job keep their individual
// domain spans in the trace file.
const keptCycles = 64

// traceJobs is the traced run of a job list: spans around each
// sim.GPU call, then the traced driver on the same job, whose
// statistics must equal sim.GPU's. It sets every per-layer metric of
// the simulator layers and writes the trace file.
func traceJobs(rc *runCtx, t *tracer, name string, jobs []simJob, p exp.RunParams) *layerAgg {
	a := &layerAgg{}
	for _, j := range jobs {
		jid := t.begin("job", 0)
		a.streamNs += t.timed("workload.stream_build", jid, func() {
			for sm := 0; sm < j.cfg.Core.NumSMs; sm++ {
				for w := 0; w < j.wl.WarpsPerSM(); w++ {
					j.wl.Stream(sm, w, j.cfg.Seed, uint64(j.cfg.L1.LineSize))
				}
			}
		})
		var g *sim.GPU
		var err error
		a.newNs += t.timed("sim.New", jid, func() { g, err = sim.New(j.cfg, j.wl) })
		if !rc.op("sim.New "+j.label, err) {
			t.end(jid, map[string]any{"job": j.label})
			continue
		}
		a.warmNs += t.timed("sim.warmup", jid, func() { g.Run(p.WarmupCycles) })
		t.timed("sim.ResetStats", jid, g.ResetStats)
		before := heapAllocs()
		a.simWinNs += t.timed("sim.window", jid, func() { g.Run(p.WindowCycles) })
		a.allocBytes += heapAllocs() - before
		a.windowCycles += p.WindowCycles
		var res sim.Results
		a.resultsNs += t.timed("sim.Results", jid, func() { res = g.Results() })
		var enc []byte
		a.encodeUs = append(a.encodeUs, float64(t.timed("exp.EncodeResults", jid, func() { enc, err = exp.EncodeResults(res) }))/1e3)
		if !rc.op("encode "+j.label, err) {
			t.end(jid, map[string]any{"job": j.label})
			continue
		}
		a.decodeUs = append(a.decodeUs, float64(t.timed("exp.DecodeResults", jid, func() { _, err = exp.DecodeResults(enc) }))/1e3)
		rc.check("decode "+j.label, err)
		rc.check("stall closure "+j.label, stallClosure(res, j.cfg.Core.NumSMs))
		a.results = append(a.results, res)
		a.encs = append(a.encs, enc)

		var d *driver
		t.timed("driver.New", jid, func() { d, err = newDriver(j.cfg, j.wl) })
		if !rc.op("driver.New "+j.label, err) {
			t.end(jid, map[string]any{"job": j.label})
			continue
		}
		t.timed("driver.warmup", jid, func() { d.run(p.WarmupCycles); d.resetStats() })
		rec := &domainRecorder{keep: keptCycles}
		d.rec = rec
		wid := t.begin("driver.window", jid)
		d.run(p.WindowCycles)
		dw := t.end(wid, nil)
		a.driverWindowNs += dw
		rec.flush(t, wid)
		for i, v := range rec.total {
			a.domNs[i] += v
		}
		rc.logf("job %-16s tick share core %4.1f%%  icnt %4.1f%%  l2 %4.1f%%  dram %4.1f%%  (base: traced window %.1f ms, spans cover %.1f%%)",
			j.label, share(rec.total[domCore], dw), share(rec.total[domIcnt], dw), share(rec.total[domL2], dw),
			share(rec.total[domDRAM], dw), ms(dw), share(sumDom(rec.total), dw))
		err = d.equalStats(g)
		if err == nil {
			if rq, rs := d.packets(); rq != res.ReqPackets || rs != res.RespPackets {
				err = fmt.Errorf("crossbar packets %d/%d, sim %d/%d", rq, rs, res.ReqPackets, res.RespPackets)
			}
		}
		rc.check("traced driver stats equal sim.GPU's "+j.label, err)
		t.end(jid, map[string]any{"job": j.label, "config_seed": j.cfg.Seed})
	}
	rc.logf("results digest %s seed %d: %s", name, rc.seed, digest(a.encs))
	rc.setSimLayers(a)
	var base int64
	for _, s := range t.spans {
		if s.parent == 0 {
			base += s.end - s.start
		}
	}
	rc.logf("%s", t.selfTimeTable("all root spans", base))
	rc.logf("domain spans cover %.1f%% of the traced driver window (%.1f ms); the untraced sim.GPU window took %.1f ms",
		share(sumDom(a.domNs), a.driverWindowNs), ms(a.driverWindowNs), ms(a.simWinNs))
	path := rc.tracePath()
	if rc.op("write trace", t.writeChrome(path)) {
		rc.logf("trace written: %s (%d spans)", path, len(t.spans))
	}
	return a
}

func sumDom(d [numDomains]int64) int64 {
	var s int64
	for _, v := range d {
		s += v
	}
	return s
}

// share is a as a percentage of b.
func share(a, b int64) float64 { return 100 * ratio(float64(a), float64(b)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setSimLayers sets the simulator layers' per-layer metrics from a
// traced job list.
func (rc *runCtx) setSimLayers(a *layerAgg) {
	var instr, l1Acc, l1Miss, l1Res, mshr, reqP, respP, l2Acc, l2Miss, reads, writes int64
	var ipc, reqFull, respFull, l2Full, rowHit, busUtil, schedFull, avgLat, p95Lat []float64
	var stalls stats.StallBreakdown
	for _, r := range a.results {
		instr += r.Instructions
		ipc = append(ipc, r.IPC)
		stalls.Merge(r.Stalls)
		mshr += r.StallMSHR
		l1Acc += r.L1.Accesses
		l1Miss += r.L1.Misses + r.L1.HitsReserved
		l1Res += r.L1.ReservationFails
		reqP += r.ReqPackets
		respP += r.RespPackets
		reqFull = append(reqFull, r.BackPressure.ReqIcntInFull)
		respFull = append(respFull, r.BackPressure.RespIcntInFull)
		l2Acc += r.L2.Accesses
		l2Miss += r.L2.Misses + r.L2.HitsReserved
		l2Full = append(l2Full, r.L2AccessQueue.FullOfUsage)
		reads += r.DRAMReads
		writes += r.DRAMWrites
		rowHit = append(rowHit, r.DRAMRowHitRate)
		busUtil = append(busUtil, r.DRAMBusUtil)
		schedFull = append(schedFull, r.DRAMSchedQueue.FullOfUsage)
		avgLat = append(avgLat, r.AvgMissLatency)
		p95Lat = append(p95Lat, r.P95MissLatency)
	}
	win := float64(a.driverWindowNs)
	rc.set("core.tick_share", ratio(float64(a.domNs[domCore]), win))
	rc.set("icnt.tick_share", ratio(float64(a.domNs[domIcnt]), win))
	rc.set("l2.tick_share", ratio(float64(a.domNs[domL2]), win))
	rc.set("dram.tick_share", ratio(float64(a.domNs[domDRAM]), win))
	rc.set("core.ns_per_inst", ratio(float64(a.domNs[domCore]), float64(instr)))
	rc.set("icnt.ns_per_packet", ratio(float64(a.domNs[domIcnt]), float64(reqP+respP)))
	rc.set("l2.ns_per_access", ratio(float64(a.domNs[domL2]), float64(l2Acc)))
	rc.set("dram.ns_per_request", ratio(float64(a.domNs[domDRAM]), float64(reads+writes)))
	rc.logf("tick shares (base: traced driver window %.1f ms): core %.1f%%  icnt %.1f%%  l2 %.1f%%  dram %.1f%%",
		ms(a.driverWindowNs), 100*rc.metrics["core.tick_share"].Value, 100*rc.metrics["icnt.tick_share"].Value,
		100*rc.metrics["l2.tick_share"].Value, 100*rc.metrics["dram.tick_share"].Value)

	rc.set("core.ipc", stats.Mean(ipc))
	for _, c := range []struct {
		name  string
		cause stats.StallCause
	}{
		{"issue", stats.StallIssue}, {"scoreboard", stats.StallScoreboard},
		{"mem-pipe", stats.StallMemPipe}, {"l1-miss", stats.StallL1Miss},
		{"icnt", stats.StallIcnt}, {"l2-queue", stats.StallL2Queue},
		{"dram-queue", stats.StallDRAMQueue},
	} {
		rc.set("core.stall."+c.name, stalls.Frac(c.cause))
	}
	rc.set("core.mshr_stall_cycles", float64(mshr))
	rc.set("cache.l1_miss_rate", ratio(float64(l1Miss), float64(l1Acc)))
	rc.set("cache.l1_reservation_fails", float64(l1Res))
	rc.set("icnt.req_packets", float64(reqP))
	rc.set("icnt.resp_packets", float64(respP))
	rc.set("icnt.req_in_full", stats.Mean(reqFull))
	rc.set("icnt.resp_in_full", stats.Mean(respFull))
	rc.set("l2.accesses", float64(l2Acc))
	rc.set("l2.miss_rate", ratio(float64(l2Miss), float64(l2Acc)))
	rc.set("l2.access_full_of_usage", stats.Mean(l2Full))
	rc.set("dram.reads", float64(reads))
	rc.set("dram.writes", float64(writes))
	rc.set("dram.row_hit_rate", stats.Mean(rowHit))
	rc.set("dram.bus_util", stats.Mean(busUtil))
	rc.set("dram.sched_full_of_usage", stats.Mean(schedFull))
	rc.set("workload.stream_build_ms", ms(a.streamNs))
	rc.set("sim.new_ms", ms(a.newNs))
	rc.set("sim.warmup_ms", ms(a.warmNs))
	rc.set("sim.window_ms", ms(a.simWinNs))
	rc.set("sim.results_us", ratio(float64(a.resultsNs)/1e3, float64(len(a.results))))
	rc.set("sim.alloc_bytes_per_kcycle", ratio(float64(a.allocBytes), float64(a.windowCycles)/1e3))
	rc.set("sim.avg_miss_latency_cyc", stats.Mean(avgLat))
	rc.set("sim.p95_miss_latency_cyc", stats.Mean(p95Lat))
	rc.set("exp.encode_us", a.encodeUs.median())
	rc.set("exp.decode_us", a.decodeUs.median())
	rc.set("trace.span_coverage", ratio(float64(sumDom(a.domNs)), win))
	rc.set("trace.overhead_frac", ratio(win, float64(a.simWinNs))-1)
}

// setNotExercised reports 0 for every per-layer metric under the given
// prefixes: layers the workload does not run.
func setNotExercised(rc *runCtx, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				rc.set(m.Name, 0)
			}
		}
	}
	rc.logf("not exercised by this workload (reported as 0): %v", prefixes)
}
