package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// wallNow is the benchmark's only wall-clock read: every latency, set-up
// time and per-layer stamp goes through it.
func wallNow() time.Time {
	return time.Now() //lint:ignore determinism the benchmark measures host time around calls into the simulator; no simulated output reads it
}

// since is the elapsed host time from t.
func since(t time.Time) time.Duration { return wallNow().Sub(t) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio divides, reading 0 when the denominator is 0 so idle layers print
// 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSample is a snapshot of this process's CPU time and heap
// allocation, taken on both sides of an op or a measurement window.
type procSample struct {
	cpu   time.Duration
	alloc uint64
}

// sampleProc reads user+system CPU time from getrusage and the
// cumulative heap allocation from the runtime.
func sampleProc() (procSample, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSample{}, fmt.Errorf("getrusage: %w", err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: m.TotalAlloc}, nil
}

// The development host is shared: over seconds to minutes each CPU
// slows by up to 70% and recovers, and raw timings of one workload
// spread 6-39% (IQR/median) between 20 s runs, wider than any bound
// worth enforcing. So every run also times a fixed reference kernel
// and reports its timings corrected to an idle host: raw time divided
// by the run's slowdown, the reference's median over refNominalMS.
//
// The reference runs right after a forced collection, so it sees the
// host's speed and not the program's heap: a change that makes the
// program collect more slows its ops but not the reference. Timing it
// right after each op instead tracked the host more closely, but the
// collector cycles an op leaves running slowed it too: on pop-1m,
// GOGC=50 against GOGC=400 raised the raw p50 by 20% and that
// corrected p50 by only 6%, while CPU time corrected this way rose 22%.
const (
	sampleEvery  = 200 * time.Millisecond
	refNominalMS = 0.33 // refKernel's median on the idle development host
)

// speedSampler collects the reference timings of one run.
type speedSampler struct {
	ref   []float64 // reference kernel times, ms
	next  time.Time
	spent time.Duration // host time spent sampling, not measuring
	runs  int           // refKernel calls, each allocating refKernelAlloc bytes
}

// maybe samples when sampleEvery has passed since the last sample. Call
// it between ops and set-ups, never inside a timed interval.
func (s *speedSampler) maybe() {
	if !wallNow().Before(s.next) {
		s.sample()
	}
}

// sample collects garbage, runs the kernel once to warm the caches and
// times a second run.
func (s *speedSampler) sample() {
	t0 := wallNow()
	runtime.GC()
	refSink += refKernel()
	t := wallNow()
	refSink += refKernel()
	s.ref = append(s.ref, ms(since(t)))
	s.runs += 2
	s.next = wallNow().Add(sampleEvery)
	s.spent += since(t0)
}

// refKernelAlloc is the heap bytes one refKernel call allocates, the
// same on every call. Call it first while no other goroutine of the
// process allocates.
var refKernelAlloc = sync.OnceValue(func() uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refSink += refKernel()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
})

// slowdown is the run's median reference time over the idle host's:
// 1.5 means the host ran the reference 50% slower than when idle.
func (s *speedSampler) slowdown() float64 {
	return ratio(quantile(s.ref, 0.5), refNominalMS)
}

// refSink keeps the reference kernel's result live.
var refSink int

// refEvent is one event of the reference kernel's queue. next and data
// are never read; they give it the size and pointer shape of a
// simulator event.
type refEvent struct {
	next *refEvent
	at   int64
	data [4]int64
}

// refKernel is the host-speed reference: a small simulator-shaped job
// in plain Go that no program change reaches. It allocates events,
// keeps them in a binary heap by time and counts the distinct times in
// an open-addressed table, about 0.33 ms on the idle development host.
// It uses no Go map, whose overflow buckets depend on a random hash
// seed, so every call allocates the same bytes.
func refKernel() int {
	var h []*refEvent
	x := uint64(88172645463325252)
	for i := 0; i < 6000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, &refEvent{at: int64(x % 100000)})
		for j := len(h) - 1; j > 0 && h[(j-1)/2].at > h[j].at; j = (j - 1) / 2 {
			h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
		}
	}
	const slots = 1 << 14
	seen := make([]int64, slots) // time+1, 0 for an empty slot
	distinct := 0
	for _, e := range h {
		k := e.at + 1
		i := (uint64(k) * 0x9E3779B97F4A7C15) >> 50
		for seen[i] != 0 && seen[i] != k {
			i = (i + 1) % slots
		}
		if seen[i] == 0 {
			seen[i] = k
			distinct++
		}
	}
	return distinct
}

// rssMB reads a process's current resident set size in MB from
// /proc/<pid>/statm; pid "self" is this process.
func rssMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%s/statm", pid)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}

// childCPU reads the CPU time another process has used, summed over
// its threads from /proc/<pid>/task/*/schedstat (nanoseconds on CPU; the
// 10 ms ticks of /proc/<pid>/stat are too coarse for a 20 s window of a
// mostly idle daemon).
func childCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// window is one measured stretch of closed-loop ops: per-op latencies
// and resident-memory samples, plus the process counters around them.
type window struct {
	lat        []float64 // per-op latency, ms
	rss        []float64 // resident set size of the serving process after each op, MB
	attempted  int
	failed     int
	elapsed    time.Duration // host time spent in ops, sampling excluded
	cpu        time.Duration // CPU attributed to the ops
	allocPerOp float64       // MB the ops allocated, per op
}

// endToEnd assembles the end-to-end metrics the window measures, all of
// them but setup_s, with every timing corrected by the run's slowdown.
func (w window) endToEnd(slowdown float64) map[string]float64 {
	ops := float64(w.attempted)
	return map[string]float64{
		"ops_per_s":       ratio(ops, w.elapsed.Seconds()) * slowdown,
		"op_ms_p50":       ratio(quantile(w.lat, 0.5), slowdown),
		"op_ms_p75":       ratio(quantile(w.lat, 0.75), slowdown),
		"cpu_ms_per_op":   ratio(ratio(ms(w.cpu), ops), slowdown),
		"alloc_mb_per_op": w.allocPerOp,
		"rss_mb_p50":      quantile(w.rss, 0.5),
	}
}
