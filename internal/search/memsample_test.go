package search

import (
	"testing"
	"time"
)

// TestHeapLiveBytesWaitsForFirstSample: while the first sample of a process
// is in flight, a concurrent caller must wait for it rather than read the
// placeholder 0, which would let a hopeless heap budget pass a search's
// first check. The refresher is simulated by holding the refresh lock.
func TestHeapLiveBytesWaitsForFirstSample(t *testing.T) {
	heapSampler.refresh.Lock()
	heapSampler.stamp.Store(0)
	heapSampler.bytes.Store(0)
	got := make(chan uint64, 1)
	go func() { got <- heapLiveBytes() }()
	select {
	case v := <-got:
		heapSampler.refresh.Unlock()
		t.Fatalf("heapLiveBytes returned %d while the first sample was in flight", v)
	case <-time.After(20 * time.Millisecond):
	}
	heapSampler.refresh.Unlock()
	if v := <-got; v == 0 {
		t.Fatal("heapLiveBytes returned 0 after the first sample")
	}
}
