package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// passStats is the host cost of one timed pass over a workload's cells.
type passStats struct {
	wall       float64 // s
	cpu        float64 // s, process user+sys
	allocBytes uint64  // MemStats.TotalAlloc delta
	allocs     uint64  // MemStats.Mallocs delta
	peakLive   uint64  // max /gc/heap/live:bytes seen during the pass
	gcCycles   uint32
	gcPauseNs  uint64
}

// processCPU returns the process's user+sys CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapSampler polls the GC-marked live heap, which changes only at the
// end of each mark phase, often enough to catch every cycle's value.
type liveHeapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startLiveHeapSampler() *liveHeapSampler {
	ls := &liveHeapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: liveHeapMetric}}
	ls.peak = readLiveHeap(s)
	go func() {
		defer close(ls.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ls.stop:
				if v := readLiveHeap(s); v > ls.peak {
					ls.peak = v
				}
				return
			case <-tick.C:
				if v := readLiveHeap(s); v > ls.peak {
					ls.peak = v
				}
			}
		}
	}()
	return ls
}

// finish stops the sampler, waits for it to exit and returns the peak.
func (ls *liveHeapSampler) finish() uint64 {
	close(ls.stop)
	<-ls.done
	return ls.peak
}

// measurePass forces a GC, so neither garbage nor the live-heap reading of
// an earlier pass or workload carries over, then times fn. before and after
// run outside the measured section (the traced run snapshots its
// allocation profile and starts and stops its CPU profile there); either
// may be nil.
func measurePass(fn, before, after func()) passStats {
	runtime.GC()
	if before != nil {
		before()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ls := startLiveHeapSampler()
	c0 := processCPU()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	c1 := processCPU()
	peak := ls.finish()
	runtime.ReadMemStats(&m1)
	if after != nil {
		after()
	}
	return passStats{
		wall:       wall.Seconds(),
		cpu:        (c1 - c0).Seconds(),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		allocs:     m1.Mallocs - m0.Mallocs,
		peakLive:   peak,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// column extracts one field from every pass.
func column(ps []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}
