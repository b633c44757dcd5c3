package search

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// The heap-budget check used to call runtime.ReadMemStats inline from every
// racing portfolio member, and ReadMemStats stops the world: N concurrent
// searches each paid a full STW pause every heapCheckInterval states, and the
// pauses of one member stalled all the others. heapLiveBytes replaces it with
// one process-wide sampler over the runtime/metrics package, whose reads are
// lock-free snapshots of runtime-internal counters — no stop-the-world, no
// coordination with the garbage collector.
//
// The sampled metric, /memory/classes/heap/objects:bytes, is the live-object
// byte count the runtime exposes to runtime/metrics and corresponds to
// MemStats.HeapAlloc (the quantity Limits.MaxHeapBytes documents), so budget
// semantics are unchanged.

// heapSampleTTL is how long one sample stays fresh. Concurrent searches
// crossing their check cadence within the window share the cached value
// instead of re-reading; a millisecond is far finer than the rate at which a
// search can meaningfully move the heap between its own samples.
const heapSampleTTL = time.Millisecond

var heapSampler struct {
	// refresh elects a single refresher when the sample is stale; losers use
	// the cached value rather than queueing behind the winner.
	refresh sync.Mutex
	// bytes is the cached live-heap size; stamp the time it was read, as
	// nanoseconds since the Unix epoch (0 = never sampled).
	bytes atomic.Uint64
	stamp atomic.Int64
}

// heapLiveBytes returns the current live-heap size, at most heapSampleTTL
// stale. Until the first sample in a process completes, every caller waits
// for it, so a hopeless budget aborts at the very first checked state of
// every concurrent search.
func heapLiveBytes() uint64 {
	stamp := heapSampler.stamp.Load()
	if stamp != 0 && time.Now().UnixNano()-stamp < int64(heapSampleTTL) {
		return heapSampler.bytes.Load()
	}
	if stamp == 0 {
		// The cached value is a placeholder 0 that passes any budget; a
		// portfolio member that read it could finish a short search before
		// its next check.
		heapSampler.refresh.Lock()
	} else if !heapSampler.refresh.TryLock() {
		// Someone else is refreshing right now; their result lands within
		// microseconds, and the budget check tolerates heapCheckInterval
		// states of slack anyway.
		return heapSampler.bytes.Load()
	}
	defer heapSampler.refresh.Unlock()
	var s [1]metrics.Sample
	s[0].Name = "/memory/classes/heap/objects:bytes"
	metrics.Read(s[:])
	v := s[0].Value.Uint64()
	heapSampler.bytes.Store(v)
	heapSampler.stamp.Store(time.Now().UnixNano())
	return v
}
