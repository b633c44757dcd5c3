package obs

import "testing"

func TestSampleTracer(t *testing.T) {
	c := NewCollector()
	s := Sample(c, 3)
	for i := 0; i < 9; i++ {
		s.Event(Event{Kind: EvGoalTest, Seq: i})
	}
	if got := c.Count(EvGoalTest); got != 3 {
		t.Fatalf("forwarded %d of 9 goal tests at n=3, want 3", got)
	}
	// Structural events always pass.
	s.Event(Event{Kind: EvRunStart})
	s.Event(Event{Kind: EvRunFinish})
	s.Event(Event{Kind: EvMemberWin})
	if got := c.Count(EvRunStart, EvRunFinish, EvMemberWin); got != 3 {
		t.Fatalf("structural events dropped: %d of 3", got)
	}
	// Kinds are counted independently: the first event of a fresh kind passes.
	s.Event(Event{Kind: EvExpand})
	if c.Count(EvExpand) != 1 {
		t.Fatal("first event of a kind must pass")
	}
	if Sample(nil, 5) != Nop || Sample(Nop, 5) != Nop {
		t.Fatal("sampling nothing must be Nop")
	}
	if Sample(c, 1) != Tracer(c) || Sample(c, 0) != Tracer(c) {
		t.Fatal("n <= 1 must return the tracer unchanged")
	}
}
