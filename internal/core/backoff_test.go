package core

import (
	"math/rand"
	"testing"
	"time"
)

// TestRetryBackoffFullJitter pins the jitter contract: delays are drawn
// uniformly from [0, min(base<<attempt, cap)], the schedule is a pure
// function of the seed, and distinct seeds decorrelate — so hedged retries
// cannot synchronize while tests stay reproducible.
func TestRetryBackoffFullJitter(t *testing.T) {
	const base = 5 * time.Millisecond

	ceiling := func(attempt int) time.Duration {
		c := retryBackoffMax
		if attempt < 10 {
			if d := base << attempt; d > 0 && d < retryBackoffMax {
				c = d
			}
		}
		return c
	}

	// Determinism: the same seed yields the identical delay sequence.
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	var seqA []time.Duration
	for attempt := 0; attempt < 16; attempt++ {
		da := retryBackoff(a, base, attempt)
		db := retryBackoff(b, base, attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
		seqA = append(seqA, da)
	}

	// Range: every delay obeys its attempt's capped-exponential ceiling.
	rng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 64; attempt++ {
		for i := 0; i < 100; i++ {
			d := retryBackoff(rng, base, attempt)
			if d < 0 || d > ceiling(attempt) {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, ceiling(attempt))
			}
		}
	}

	// Jitter: a different seed must produce a different schedule, and the
	// draws must actually spread over the range rather than pinning to the
	// ceiling (the pre-jitter behavior).
	c := rand.New(rand.NewSource(43))
	same, belowHalf := 0, 0
	for attempt := 0; attempt < 16; attempt++ {
		d := retryBackoff(c, base, attempt)
		if d == seqA[attempt] {
			same++
		}
		if d < ceiling(attempt)/2 {
			belowHalf++
		}
	}
	if same == 16 {
		t.Fatal("seeds 42 and 43 produced identical schedules; jitter is not seeded")
	}
	if belowHalf == 0 {
		t.Fatal("no delay fell below half its ceiling in 16 draws; backoff looks unjittered")
	}
}

// TestRetryBackoffLargeBaseOverflow guards the shift against overflow and
// over-cap bases.
func TestRetryBackoffLargeBaseOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, base := range []time.Duration{time.Hour, retryBackoffMax, 1 << 62} {
		for attempt := 0; attempt < 70; attempt++ {
			if d := retryBackoff(rng, base, attempt); d < 0 || d > retryBackoffMax {
				t.Fatalf("base %v attempt %d: delay %v outside [0, %v]", base, attempt, d, retryBackoffMax)
			}
		}
	}
}
