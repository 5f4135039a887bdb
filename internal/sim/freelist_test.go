package sim

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSteadyStateSchedulingZeroAllocs pins the freelist contract: once
// warm, the schedule+fire loop — the hottest path in the repository —
// must not allocate at all.
func TestSteadyStateSchedulingZeroAllocs(t *testing.T) {
	e := New(obs.Scope{})
	fn := func() {}
	// Warm the freelist and the queue's backing array.
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+fire allocates %.1f/op, want 0", allocs)
	}
}

// TestTickerZeroAllocs pins the Ticker steady state: the tick closure is
// allocated once at construction and reused every period.
func TestTickerZeroAllocs(t *testing.T) {
	e := New(obs.Scope{})
	tk := NewTicker(e, time.Second, func(time.Duration) {})
	defer tk.Stop()
	e.Step() // warm: first tick recycles its event into the freelist
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("ticker steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestCancelZeroAllocs pins the lazy-deletion path: schedule+cancel churn
// must not allocate once the freelist is warm (the compactor recycles
// dead events back into it).
func TestCancelZeroAllocs(t *testing.T) {
	e := New(obs.Scope{})
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.Cancel(e.After(time.Hour, fn))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.After(time.Hour, fn))
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel churn allocates %.1f/op, want 0", allocs)
	}
}

// TestEventRecycling verifies fired events return to the freelist and
// back the next schedule, rather than being reallocated.
func TestEventRecycling(t *testing.T) {
	e := New(obs.Scope{})
	fn := func() {}
	first := e.After(time.Second, fn)
	e.Run()
	second := e.After(time.Second, fn)
	if first != second {
		t.Error("fired event was not recycled by the next schedule")
	}
	if second.Cancelled() || second.fired {
		t.Error("recycled event kept stale state")
	}
	e.Run()
}

// TestCancelChurnBounded verifies the compactor keeps the queue from
// growing without bound under schedule+cancel churn, and that survivors
// still fire in order afterwards.
func TestCancelChurnBounded(t *testing.T) {
	e := New(obs.Scope{})
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Duration(i+1)*time.Minute, func() { got = append(got, i) })
	}
	for i := 0; i < 100_000; i++ {
		e.Cancel(e.After(time.Hour, func() {}))
	}
	if n := len(e.queue); n > 1024 {
		t.Errorf("queue holds %d entries after churn, compaction failed", n)
	}
	if e.Pending() != 10 {
		t.Errorf("Pending() = %d, want the 10 live events", e.Pending())
	}
	if e.Cancelled() != 100_000 {
		t.Errorf("Cancelled() = %d, want 100000", e.Cancelled())
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("survivors fired out of order after compaction: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("fired %d survivors, want 10", len(got))
	}
}

// TestCancelCurrentlyFiringEvent verifies that cancelling the event whose
// callback is executing — the Ticker.Stop-inside-callback pattern — is a
// safe no-op.
func TestCancelCurrentlyFiringEvent(t *testing.T) {
	e := New(obs.Scope{})
	var ev *Event
	ran := false
	ev = e.After(time.Second, func() {
		ran = true
		e.Cancel(ev)
	})
	e.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Cancelled() != 0 {
		t.Errorf("Cancelled() = %d after self-cancel of a firing event, want 0", e.Cancelled())
	}
	// The engine stays healthy: new work schedules and fires normally.
	fired := false
	e.After(time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("engine wedged after self-cancel")
	}
}

// TestFiredSink verifies batched flushing into an attached sink at
// Run/RunUntil boundaries.
func TestFiredSink(t *testing.T) {
	var sink atomic.Uint64
	e := New(obs.Scope{Fired: &sink})
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Second, func() {})
	}
	e.RunUntil(2 * time.Second)
	if got := sink.Load(); got != 3 {
		t.Errorf("sink = %d after RunUntil(2s), want 3", got)
	}
	e.Run()
	if got := sink.Load(); got != 5 {
		t.Errorf("sink = %d after Run, want 5", got)
	}
	// A second engine sharing the sink accumulates.
	e2 := New(obs.Scope{Fired: &sink})
	e2.After(time.Second, func() {})
	e2.Run()
	if got := sink.Load(); got != 6 {
		t.Errorf("shared sink = %d, want 6", got)
	}
}
