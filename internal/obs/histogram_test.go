package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)            // bucket 0 (<= 64ns)
	h.Observe(-time.Second) // clamped to 0, bucket 0
	h.Observe(64 * time.Nanosecond)
	h.Observe(65 * time.Nanosecond) // bucket 1 (<= 128ns)
	h.Observe(time.Millisecond)
	h.Observe(time.Hour) // beyond the last finite bound: overflow
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Total() != time.Hour+time.Millisecond+129*time.Nanosecond {
		t.Fatalf("total = %s", h.Total())
	}
	s := h.snapshotBuckets()
	if s.buckets[0] != 3 || s.buckets[1] != 1 {
		t.Fatalf("low buckets = %d, %d", s.buckets[0], s.buckets[1])
	}
	if s.buckets[histBucketCount-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.buckets[histBucketCount-1])
	}
	// Every observation must land in a bucket whose bound brackets it.
	for _, d := range []time.Duration{1, 63, 64, 65, 127, 128, 129, 1 << 20, 1 << 30} {
		i := histIndex(int64(d))
		if i > 0 && int64(d) <= histBound(i-1) {
			t.Fatalf("histIndex(%d) = %d: below bucket's lower bound", d, i)
		}
		if i < histFiniteBuckets && int64(d) > histBound(i) {
			t.Fatalf("histIndex(%d) = %d: above bucket's upper bound", d, i)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 100 observations spread uniformly inside the (512ns, 1024ns] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(600 * time.Nanosecond)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 512*time.Nanosecond || p50 > 1024*time.Nanosecond {
		t.Fatalf("p50 = %s, want within the (512ns, 1024ns] bucket", p50)
	}
	// Quantiles are monotone in q.
	if h.Quantile(0.99) < h.Quantile(0.5) || h.Quantile(0.5) < h.Quantile(0.1) {
		t.Fatal("quantiles must be monotone")
	}
	// Overflow observations report the last finite bound, not +Inf.
	o := &Histogram{}
	o.Observe(time.Hour)
	if got := o.Quantile(0.5); got != time.Duration(histBound(histFiniteBuckets-1)) {
		t.Fatalf("overflow quantile = %s", got)
	}
}

func TestHistogramNilAndConcurrent(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Total() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read zero")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}

	live := &Histogram{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				live.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if live.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", live.Count())
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	h := &Histogram{}
	h.Observe(50 * time.Nanosecond)  // bucket 0
	h.Observe(100 * time.Nanosecond) // bucket 1
	h.Observe(100 * time.Nanosecond) // bucket 1
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("snapshot buckets = %+v, want 2 non-empty", s.Buckets)
	}
	if s.Buckets[0].UpperNS != 64 || s.Buckets[0].Count != 1 {
		t.Fatalf("bucket 0 = %+v", s.Buckets[0])
	}
	if s.Buckets[1].UpperNS != 128 || s.Buckets[1].Count != 3 {
		t.Fatalf("bucket 1 = %+v (counts must be cumulative)", s.Buckets[1])
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("search.expand.seconds")
	h.Observe(time.Millisecond)
	if r.Histogram("search.expand.seconds") != h {
		t.Fatal("histogram lookup not stable")
	}
	var nilReg *Registry
	if nilReg.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	s := r.Snapshot()
	hs, ok := s.Histograms["search.expand.seconds"]
	if !ok || hs.Count != 1 {
		t.Fatalf("snapshot histograms = %+v", s.Histograms)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("JSON exposition: %v", err)
	}
	if round.Histograms["search.expand.seconds"].Count != 1 {
		t.Fatal("histogram lost in JSON round trip")
	}
}

func TestWritePrometheusHistogramAndTimerMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(Name("search.expand.seconds", "algo", "RBFS"))
	h.Observe(100 * time.Nanosecond) // bucket le=1.28e-07
	h.Observe(100 * time.Nanosecond)
	h.Observe(time.Hour) // overflow: only in +Inf
	r.Timer("portfolio.race").Observe(1500 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE tupelo_search_expand_seconds histogram",
		`tupelo_search_expand_seconds_bucket{algo="RBFS",le="1.28e-07"} 2`,
		`tupelo_search_expand_seconds_bucket{algo="RBFS",le="+Inf"} 3`,
		`tupelo_search_expand_seconds_count{algo="RBFS"} 3`,
		`tupelo_search_expand_seconds_sum{algo="RBFS"} 3600.0000002`,
		"tupelo_portfolio_race_max_seconds 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkHistogramObserve measures one latency observation: the nil case
// is the un-instrumented run (no registry configured) and must be a few
// nanoseconds with zero allocations; the live case is three atomic adds.
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i))
		}
	})
	b.Run("live", func(b *testing.B) {
		h := &Histogram{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i))
		}
	})
}
