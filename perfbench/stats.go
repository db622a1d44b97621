package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"unsafe"
)

// sample is a set of measurements of one quantity, reported as a
// median, quartiles and the highest tail percentile the sample can
// support.
type sample []float64

// quantile returns the q-quantile (0 <= q <= 1) by linear
// interpolation between the order statistics; NaN for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

// tailLadder lists the tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailLadder that
// leaves at least ten of n samples beyond it, so a tail figure is
// never one or two outliers; ok is false when n is too small for any.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// summary renders the sample as "median (q1..q3, pNN x, n=N)".
func (s sample) summary(format string) string {
	if len(s) == 0 {
		return "no samples"
	}
	f := func(v float64) string { return fmt.Sprintf(format, v) }
	out := fmt.Sprintf("median %s  q1..q3 %s..%s", f(s.median()), f(s.quantile(0.25)), f(s.quantile(0.75)))
	if p, ok := tailPercentile(len(s)); ok {
		out += fmt.Sprintf("  p%g %s", p, f(s.quantile(p/100)))
	}
	return out + fmt.Sprintf("  n=%d", len(s))
}

// cpuNanos is the process's CPU time in ns (every thread, user and
// system), read from CLOCK_PROCESS_CPUTIME_ID: unlike getrusage it has
// nanosecond resolution, and unlike wall time it excludes the time a
// shared VM's vCPUs are stolen by other tenants.
func cpuNanos() int64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return ts.Nano()
}
