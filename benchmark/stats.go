package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 < q < 1) of ds in milliseconds,
// interpolating linearly between closest ranks.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// meanMS returns the mean of ds in milliseconds.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Millisecond)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample is the part of runtime.MemStats the benchmark takes deltas
// of around a timed phase.
type runtimeSample struct {
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
	}
}

// runtimeDelta is the allocation and GC activity of one timed phase.
type runtimeDelta struct {
	allocBytes float64
	allocs     float64
	gcCycles   float64
	gcPause    time.Duration
}

func (a runtimeSample) until(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		allocBytes: float64(b.allocBytes - a.allocBytes),
		allocs:     float64(b.allocs - a.allocs),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		gcPause:    time.Duration(b.gcPauseNS - a.gcPauseNS),
	}
}

// resetPeakRSS resets the kernel's peak resident set size watermark of this
// process (Linux: writing 5 to /proc/self/clear_refs), so that peakRSSMB
// reads the peak since the reset. Where that is unavailable the watermark
// stays the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set size of this process in MB: the
// VmHWM watermark of /proc/self/status, or getrusage's ru_maxrss where
// that file is missing (both in KiB on Linux).
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
