package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of vals by the
// nearest-rank method on a sorted copy; NaN for an empty sample. Nearest
// rank never invents a value that was not observed, which matters for
// the tail of a few hundred batch times.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the even-count midpoint, the
// estimator every slice-median in this harness uses.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), because
// that is the estimator the acceptance driver applies to this
// benchmark's outputs. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// summary is one metric's value with the spread it was observed with:
// the median across time slices (or repeats) and the inter-quartile
// range beside it.
type summary struct {
	Median, IQR float64
	N           int
}

// summarize reduces per-slice (or per-repeat) values to median and IQR.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{Median: math.NaN(), IQR: math.NaN()}
	}
	q1, q3 := quartiles(vals)
	return summary{Median: median(vals), IQR: q3 - q1, N: len(vals)}
}

// rel returns IQR/median, the spread as a share of the value.
func (s summary) rel() float64 {
	if s.Median == 0 || math.IsNaN(s.Median) {
		return 0
	}
	return math.Abs(s.IQR / s.Median)
}

// procSample is one reading of the process-wide cost counters. Deltas
// between two samples divided by the queries answered between them give
// the per-query CPU and allocation metrics.
type procSample struct {
	at         time.Time
	cpu        time.Duration // user+sys, getrusage(RUSAGE_SELF)
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// sampleProc reads rusage and MemStats. ReadMemStats stops the world
// for tens of microseconds, so callers sample at slice boundaries
// (about once a second), never per operation.
func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return procSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    mem.Mallocs,
		allocBytes: mem.TotalAlloc,
		gcCycles:   mem.NumGC,
		gcPause:    time.Duration(mem.PauseTotalNs),
	}
}

// peakRSSMiB reads VmHWM from /proc/self/status; ru_maxrss is the
// fallback where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "VmHWM:") {
				fields := strings.Fields(line)
				if len(fields) >= 2 {
					if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// slice accumulates one time slice of a measured window.
type slice struct {
	ops      int       // queries answered in the slice
	lat      []float64 // per-operation latency, ms
	from, to procSample
}

// The per-query readings divide a process-counter delta over the slice
// by the queries it answered.
func (s *slice) cpuMsPerQuery() float64 {
	return ms(s.to.cpu-s.from.cpu) / float64(s.ops)
}
func (s *slice) allocsPerQuery() float64 {
	return float64(s.to.mallocs-s.from.mallocs) / float64(s.ops)
}
func (s *slice) allocKBPerQuery() float64 {
	return float64(s.to.allocBytes-s.from.allocBytes) / 1024 / float64(s.ops)
}
func (s *slice) opsPerSecond() float64 { return float64(s.ops) / s.to.at.Sub(s.from.at).Seconds() }

// latencyPercentile returns the slice reading "p-th percentile of the
// slice's latencies" for overSlices.
func latencyPercentile(p float64) func(*slice) float64 {
	return func(s *slice) float64 { return percentile(s.lat, p) }
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// overSlices maps f over the slices that answered at least one query
// and summarises the results — the "median across slices" rule.
func overSlices(ss []slice, f func(*slice) float64) summary {
	vals := make([]float64, 0, len(ss))
	for i := range ss {
		if ss[i].ops == 0 {
			continue
		}
		if v := f(&ss[i]); !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	return summarize(vals)
}
