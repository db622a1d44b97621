package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// epoch anchors every timestamp of a run.
var epoch = time.Now()

// nanotime is the monotonic clock the benchmark times with.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one timed call into a layer. Spans live in memory until the
// run ends and are then written out as Chrome trace events.
type span struct {
	id, parent int // parent 0 = root
	name       string
	start, end int64 // ns since epoch
	args       map[string]any
	// tid is the span's row in the trace file: rowLayers for calls
	// into the layers, rowCycles for the per-cycle domain spans kept
	// only for the file (their time is in an aggregate, addAggregate),
	// rowClients+c for client c's requests.
	tid int
}

const (
	rowLayers  = 1
	rowCycles  = 2
	rowClients = 10
)

// spanTotals accumulates one span name's time for the self-time table.
type spanTotals struct {
	count       int64
	total, kids int64 // ns; kids = time covered by child spans
}

// tracer records spans and per-name totals.
type tracer struct {
	spans  []span
	totals map[string]*spanTotals
}

func newTracer() *tracer { return &tracer{totals: map[string]*spanTotals{}} }

func (t *tracer) tot(name string) *spanTotals {
	st := t.totals[name]
	if st == nil {
		st = &spanTotals{}
		t.totals[name] = st
	}
	return st
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, tid: rowLayers, start: nanotime()})
	return len(t.spans)
}

// end closes span id, attaching args, and returns its duration in ns.
func (t *tracer) end(id int, args map[string]any) int64 {
	s := &t.spans[id-1]
	s.end = nanotime()
	s.args = args
	d := s.end - s.start
	st := t.tot(s.name)
	st.count++
	st.total += d
	if s.parent != 0 {
		t.tot(t.spans[s.parent-1].name).kids += d
	}
	return d
}

// timed runs fn inside a span and returns the span's duration in ns.
func (t *tracer) timed(name string, parent int, fn func()) int64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id, nil)
}

// addAggregate charges count child spans of total ns named name to
// parent without storing each one: the per-cycle domain spans of a
// traced window are summed as they happen.
func (t *tracer) addAggregate(name string, parent int, count, total int64) {
	st := t.tot(name)
	st.count += count
	st.total += total
	t.tot(t.spans[parent-1].name).kids += total
}

// add records a finished root span on row tid, such as one client
// request timed on its own goroutine.
func (t *tracer) add(name string, tid int, start, end int64, args map[string]any) {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, name: name, tid: tid, start: start, end: end, args: args})
	st := t.tot(name)
	st.count++
	st.total += end - start
}

// addSampled stores a per-cycle span for the trace file only.
func (t *tracer) addSampled(name string, parent int, start, end int64) {
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, tid: rowCycles, start: start, end: end})
}

// chromeEvent is one Chrome trace-event ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing, one row per span tid.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := t.encodeChrome(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func (t *tracer) encodeChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid, Args: args,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// selfTimeTable renders every span name's count, total and self time
// (total minus the time its child spans cover), with self time as a
// share of base, whose name and size head the table.
func (t *tracer) selfTimeTable(baseName string, base int64) string {
	names := make([]string, 0, len(t.totals))
	for n := range t.totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := t.totals[names[i]], t.totals[names[j]]
		if sa, sb := a.total-a.kids, b.total-b.kids; sa != sb {
			return sa > sb
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "self time per layer (share base: %s = %.1f ms)\n", baseName, float64(base)/1e6)
	fmt.Fprintf(&b, "  %-22s %10s %12s %12s %8s\n", "span", "count", "total ms", "self ms", "self %")
	for _, n := range names {
		st := t.totals[n]
		self := st.total - st.kids
		fmt.Fprintf(&b, "  %-22s %10d %12.1f %12.1f %7.1f%%\n", n, st.count,
			float64(st.total)/1e6, float64(self)/1e6, 100*float64(self)/float64(max(base, 1)))
	}
	return b.String()
}

// domainRecorder sums the driver's per-cycle domain spans and keeps
// the first keep cycles' spans for the trace file (every cycle of a
// suite pass would be millions of events).
type domainRecorder struct {
	total  [numDomains]int64
	cycles int64
	keep   int
	kept   [][numDomains + 1]int64
}

// cycle takes the boundaries of one core cycle's domain spans: t[i]
// to t[i+1] is domain i.
func (r *domainRecorder) cycle(t [numDomains + 1]int64) {
	for i := range numDomains {
		r.total[i] += t[i+1] - t[i]
	}
	r.cycles++
	if len(r.kept) < r.keep {
		r.kept = append(r.kept, t)
	}
}

// flush charges the recorded spans to parent in t.
func (r *domainRecorder) flush(t *tracer, parent int) {
	for i, name := range domainNames {
		t.addAggregate(name, parent, r.cycles, r.total[i])
	}
	for _, c := range r.kept {
		for i, name := range domainNames {
			if c[i+1] > c[i] {
				t.addSampled(name, parent, c[i], c[i+1])
			}
		}
	}
}
