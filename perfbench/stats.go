package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
// It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailPercentile is the highest of p99, p90 and p50 that leaves at least
// ten samples beyond it, so the reported tail is never one or two
// outliers. The runs are sized to reach p99.
func tailPercentile(xs []float64) float64 {
	for _, p := range []float64{0.99, 0.9} {
		if float64(len(xs))*(1-p) >= 10 {
			return percentile(xs, p)
		}
	}
	return percentile(xs, 0.5)
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// heapPeak samples the Go heap (bytes in heap objects, live or not yet
// swept) every few milliseconds and keeps the maximum. runtime/metrics
// reads do not stop the world, so sampling stays out of the measured
// code's way. reset collects garbage first, so every measured stretch
// starts from the same heap and its peak follows its own allocations.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.reset()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

// heapBytes reads the bytes in heap objects.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(heapBytes()) / (1 << 20)
}

func (h *heapPeak) sample() {
	v := heapBytes()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// reset collects garbage and starts a new peak from the live heap.
func (h *heapPeak) reset() {
	runtime.GC()
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
	h.sample()
}

// peakMB returns the peak since the last reset, in MB.
func (h *heapPeak) peakMB() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// Stop ends sampling and returns the peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return h.peakMB()
}
