package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds returns the process's CPU time so far (user + system, every
// thread).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's peak resident set in MiB (getrusage
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// passTimes collects the per-pass host timings of one run.
type passTimes struct {
	setup, wall, cpu, writesPerSec []float64
}

func (p *passTimes) add(setup, wall, cpu float64, writes uint64) {
	p.setup = append(p.setup, setup)
	p.wall = append(p.wall, wall)
	p.cpu = append(p.cpu, cpu)
	p.writesPerSec = append(p.writesPerSec, float64(writes)/wall)
}

// reportTimes publishes the medians over the untraced passes as the
// end-to-end host-time metrics.
func (e *env) reportTimes() {
	e.set("setup_s", median(e.times.setup))
	e.set("wall_s", median(e.times.wall))
	e.set("cpu_s", median(e.times.cpu))
	e.set("writes_per_s", median(e.times.writesPerSec))
}

// settle prepares the next pass: it waits (up to a second) until only
// baseline goroutines remain, because a finished replay's pipeline front
// stage and worker-pool lanes exit shortly after the calls that started them
// return and keep the finished instance reachable until then; then it
// returns freed memory to the OS, so every pass starts from the same heap.
func settle(baseline int) {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	debug.FreeOSMemory()
}
