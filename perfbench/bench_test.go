package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestKeyGenSeeded(t *testing.T) {
	a, b, c := newKeyGen(7), newKeyGen(7), newKeyGen(8)
	seqA, seqB, seqC := a.pass(), b.pass(), c.pass()
	if !slices.Equal(seqA, seqB) {
		t.Fatal("same seed gave different request sequences")
	}
	for i := range a.keys {
		if !bytes.Equal(a.keys[i].body, b.keys[i].body) {
			t.Fatalf("same seed gave different key %d: %s vs %s", i, a.keys[i].body, b.keys[i].body)
		}
	}
	same := slices.Equal(seqA, seqC)
	for i := range a.keys {
		same = same && bytes.Equal(a.keys[i].body, c.keys[i].body)
	}
	if same {
		t.Fatal("different seeds gave the same requests")
	}
}

// TestKeyGenShape checks the properties the workload relies on: every
// popularity tier holds each workload once, and popularity falls with
// rank.
func TestKeyGenShape(t *testing.T) {
	g := newKeyGen(3)
	n := len(realmemWorkloads())
	if len(g.keys) != n*svcTiers {
		t.Fatalf("%d keys, want %d", len(g.keys), n*svcTiers)
	}
	for tier := 0; tier < svcTiers; tier++ {
		seen := map[string]bool{}
		for _, k := range g.keys[tier*n : (tier+1)*n] {
			seen[k.workload] = true
		}
		if len(seen) != n {
			t.Errorf("tier %d holds %d distinct workloads, want %d", tier, len(seen), n)
		}
	}
	seq := g.pass()
	if len(seq) != svcPass {
		t.Fatalf("pass of %d requests, want %d", len(seq), svcPass)
	}
	counts := make([]int, len(g.keys))
	for _, i := range seq {
		counts[i]++
	}
	if !slices.Equal(counts, g.counts) {
		t.Fatal("a pass does not hold each key its share of times")
	}
	for r := 1; r < len(counts); r++ {
		if counts[r] > counts[r-1] || counts[r] < 1 {
			t.Fatalf("popularity does not fall with rank, or a key is never requested: %v", counts)
		}
	}
	if again := g.pass(); slices.Equal(seq, again) {
		t.Error("two passes came in the same order")
	}
}

// TestDriverEqualsSim runs the traced driver and sim.GPU on the same
// short jobs: their statistics must agree, and a driver that is one
// cycle off must be caught.
func TestDriverEqualsSim(t *testing.T) {
	for _, c := range []struct {
		name  string
		fixed int64 // < 0: real memory
	}{{"sc", -1}, {"kmeans", -1}, {"cfd", 400}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.GTX480Baseline()
			cfg.Seed = 42
			if c.fixed >= 0 {
				cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: c.fixed}
			}
			wl, err := workload.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sim.New(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			d, err := newDriver(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			g.Run(500)
			g.ResetStats()
			g.Run(1500)
			d.run(500)
			d.resetStats()
			d.rec = &domainRecorder{keep: 4}
			d.run(1500)
			if err := d.equalStats(g); err != nil {
				t.Fatal(err)
			}
			res := g.Results()
			if rq, rs := d.packets(); rq != res.ReqPackets || rs != res.RespPackets {
				t.Fatalf("packets %d/%d, sim %d/%d", rq, rs, res.ReqPackets, res.RespPackets)
			}
			if d.rec.cycles != 1500 || len(d.rec.kept) != 4 {
				t.Fatalf("recorder saw %d cycles, kept %d", d.rec.cycles, len(d.rec.kept))
			}
			d.run(1)
			if err := d.equalStats(g); err == nil {
				t.Fatal("a driver one cycle ahead passed the equality check")
			}
		})
	}
}

// TestManifest keeps BENCHMARK.json in step with the metric and
// workload tables; regenerate it with -manifest.
func TestManifest(t *testing.T) {
	want, err := encodeManifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; run: go run . -manifest ../BENCHMARK.json\n got: %s\nwant: %s", got, want)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestBadArguments(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "realmem-suite", "-trace", "2"},
		{"-workload", "realmem-suite", "-seconds", "0"},
	} {
		if code := mainErr(args, &out); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad arguments printed a result: %q", out.String())
	}
}
