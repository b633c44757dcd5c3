package obs

import "sync/atomic"

// sampledKinds marks the high-frequency event kinds that a sampling tracer
// thins: one event per examined state, per expansion, per candidate move,
// per operator application, per heuristic evaluation, or per successor-memo
// lookup. Structural events (run, member, panic) always pass through —
// there are only a handful per run and consumers key on them.
var sampledKinds = [...]bool{
	EvGoalTest:  true,
	EvExpand:    true,
	EvMove:      true,
	EvOpApply:   true,
	EvCacheHit:  true,
	EvCacheMiss: true,
	EvMemoHit:   true,
	EvMemoMiss:  true,
}

// Sample wraps t so only one in n events of each high-frequency kind
// (goal tests, expansions, moves, operator applies, cache and memo lookups)
// is forwarded; run and member events always pass through. Counting is per
// kind with atomics, so a sampled tracer adds a few nanoseconds per dropped
// event and remains safe for concurrent use. n <= 1 returns t unchanged;
// a nil or Nop t returns Nop.
func Sample(t Tracer, n int) Tracer {
	if t == nil || t == Nop {
		return Nop
	}
	if n <= 1 {
		return t
	}
	return &sampleTracer{t: t, n: int64(n)}
}

type sampleTracer struct {
	t      Tracer
	n      int64
	counts [len(sampledKinds)]atomic.Int64
}

// Event implements Tracer.
func (s *sampleTracer) Event(e Event) {
	if int(e.Kind) < len(sampledKinds) && sampledKinds[e.Kind] {
		if s.counts[e.Kind].Add(1)%s.n != 1 {
			return
		}
	}
	s.t.Event(e)
}
