package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestEngineOrdering(t *testing.T) {
	e := New(obs.Scope{})
	var got []int
	e.At(3*time.Second, func() { got = append(got, 3) })
	e.At(1*time.Second, func() { got = append(got, 1) })
	e.At(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %d, want %d", i, got[i], want[i])
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %s, want 3s", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := New(obs.Scope{})
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := New(obs.Scope{})
	fired := false
	ev := e.After(time.Second, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	// Cancelling again, or cancelling nil, must not panic.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := New(obs.Scope{})
	var got []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.After(time.Duration(i+1)*time.Second, func() { got = append(got, i) })
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineSchedulingInsideEvent(t *testing.T) {
	e := New(obs.Scope{})
	var got []time.Duration
	e.After(time.Second, func() {
		got = append(got, e.Now())
		e.After(time.Second, func() {
			got = append(got, e.Now())
		})
	})
	e.Run()
	if len(got) != 2 || got[0] != time.Second || got[1] != 2*time.Second {
		t.Errorf("nested scheduling times = %v", got)
	}
}

func TestEnginePastEventClamped(t *testing.T) {
	e := New(obs.Scope{})
	var at time.Duration = -1
	e.After(5*time.Second, func() {
		e.At(time.Second, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 5*time.Second {
		t.Errorf("past event fired at %s, want clamp to 5s", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New(obs.Scope{})
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Second, func() { count++ })
	}
	e.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("fired %d events, want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now() = %s, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("Pending() = %d, want 5", e.Pending())
	}
	// RunUntil with no events in range still advances the clock.
	e2 := New(obs.Scope{})
	e2.RunUntil(42 * time.Second)
	if e2.Now() != 42*time.Second {
		t.Errorf("empty RunUntil: Now() = %s, want 42s", e2.Now())
	}
}

func TestEngineHalt(t *testing.T) {
	e := New(obs.Scope{})
	count := 0
	e.After(time.Second, func() { count++; e.Halt() })
	e.After(2*time.Second, func() { count++ })
	e.Run()
	if count != 1 {
		t.Errorf("fired %d events after Halt, want 1", count)
	}
	if !e.Halted() {
		t.Error("Halted() = false")
	}
}

func TestAfterSecondsEdgeCases(t *testing.T) {
	e := New(obs.Scope{})
	if ev := e.AfterSeconds(math.Inf(1), func() {}); ev != nil {
		t.Error("AfterSeconds(+Inf) scheduled an event")
	}
	if ev := e.AfterSeconds(math.NaN(), func() {}); ev != nil {
		t.Error("AfterSeconds(NaN) scheduled an event")
	}
	fired := false
	if ev := e.AfterSeconds(0.5, func() { fired = true }); ev == nil {
		t.Fatal("AfterSeconds(0.5) returned nil")
	}
	e.Run()
	if !fired {
		t.Error("AfterSeconds(0.5) event did not fire")
	}
}

func TestDurationFromSeconds(t *testing.T) {
	tests := []struct {
		give float64
		want time.Duration
	}{
		{0, 0},
		{-3, 0},
		{1, time.Second},
		{0.25, 250 * time.Millisecond},
		{1e18, time.Duration(math.MaxInt64)}, // saturates, no overflow
	}
	for _, tt := range tests {
		if got := DurationFromSeconds(tt.give); got != tt.want {
			t.Errorf("DurationFromSeconds(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestTicker(t *testing.T) {
	e := New(obs.Scope{})
	var ticks []time.Duration
	tk := NewTicker(e, 10*time.Second, func(now time.Duration) {
		ticks = append(ticks, now)
	})
	e.RunUntil(35 * time.Second)
	tk.Stop()
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (%v)", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := time.Duration(i+1) * 10 * time.Second
		if at != want {
			t.Errorf("tick %d at %s, want %s", i, at, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := New(obs.Scope{})
	count := 0
	var tk *Ticker
	tk = NewTicker(e, time.Second, func(time.Duration) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 2 {
		t.Errorf("ticked %d times, want 2", count)
	}
	if !tk.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestTickerZeroPeriod(t *testing.T) {
	e := New(obs.Scope{})
	tk := NewTicker(e, 0, func(time.Duration) { t.Error("zero-period ticker fired") })
	if !tk.Stopped() {
		t.Error("zero-period ticker not stopped")
	}
	e.Run()
}

func TestEngineFiredCount(t *testing.T) {
	e := New(obs.Scope{})
	for i := 0; i < 7; i++ {
		e.After(time.Duration(i)*time.Second, func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", e.Fired())
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	e := New(obs.Scope{})
	fired := false
	tk := NewTicker(e, 10*time.Second, func(time.Duration) { fired = true })
	if tk.Stopped() {
		t.Fatal("fresh ticker reports stopped")
	}
	// Stop before the simulation ever advances: the first tick must not
	// fire, and the pending event must leave the queue so Run terminates.
	tk.Stop()
	if !tk.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after stopping the only ticker, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Error("stopped ticker fired")
	}
	// Stop is terminal: a second Stop is a harmless no-op.
	tk.Stop()
}

func TestTickerRestartSemantics(t *testing.T) {
	// A stopped ticker stays stopped; restarting means creating a new
	// ticker, whose phase is one full period from the moment of creation
	// (not from the old ticker's schedule).
	e := New(obs.Scope{})
	var first []time.Duration
	tk := NewTicker(e, 10*time.Second, func(now time.Duration) { first = append(first, now) })
	e.RunUntil(25 * time.Second)
	tk.Stop()
	if len(first) != 2 {
		t.Fatalf("first ticker fired %d times, want 2", len(first))
	}

	var second []time.Duration
	tk2 := NewTicker(e, 10*time.Second, func(now time.Duration) { second = append(second, now) })
	e.RunUntil(60 * time.Second)
	tk2.Stop()
	want := []time.Duration{35 * time.Second, 45 * time.Second, 55 * time.Second}
	if len(second) != len(want) {
		t.Fatalf("second ticker fired at %v, want %v", second, want)
	}
	for i := range want {
		if second[i] != want[i] {
			t.Errorf("second ticker fire %d at %v, want %v", i, second[i], want[i])
		}
	}
	if len(first) != 2 {
		t.Error("old ticker fired after Stop")
	}
}

func TestTickerHorizonAlignment(t *testing.T) {
	// RunUntil(t) is inclusive of events at exactly t, so a ticker whose
	// period divides the horizon fires on the boundary itself.
	e := New(obs.Scope{})
	var ticks []time.Duration
	tk := NewTicker(e, 10*time.Second, func(now time.Duration) { ticks = append(ticks, now) })
	e.RunUntil(30 * time.Second)
	tk.Stop()
	if len(ticks) != 3 || ticks[2] != 30*time.Second {
		t.Fatalf("ticks = %v, want the last exactly on the 30s horizon", ticks)
	}
	if e.Now() != 30*time.Second {
		t.Errorf("Now() = %v after RunUntil(30s)", e.Now())
	}
}

func TestEngineAccountingUnderCancel(t *testing.T) {
	e := New(obs.Scope{})
	events := make([]*Event, 10)
	for i := range events {
		events[i] = e.After(time.Duration(i+1)*time.Second, func() {})
	}
	if e.Pending() != 10 || e.MaxPending() != 10 {
		t.Fatalf("Pending/MaxPending = %d/%d, want 10/10", e.Pending(), e.MaxPending())
	}

	// Cancel three pending events; cancelling one of them twice must not
	// double-count.
	e.Cancel(events[2])
	e.Cancel(events[5])
	e.Cancel(events[8])
	e.Cancel(events[5])
	if e.Cancelled() != 3 {
		t.Errorf("Cancelled() = %d, want 3", e.Cancelled())
	}
	if e.Pending() != 7 {
		t.Errorf("Pending() = %d after 3 cancels, want 7", e.Pending())
	}

	e.Run()
	if e.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7 (cancelled events must not fire)", e.Fired())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", e.Pending())
	}

	// Cancelling an event that already fired is a no-op for accounting.
	e.Cancel(events[0])
	if e.Cancelled() != 3 {
		t.Errorf("Cancelled() = %d after cancelling a fired event, want 3", e.Cancelled())
	}
	// Cancelling nil is safe.
	e.Cancel(nil)

	// The high-water mark survives the drain.
	if e.MaxPending() != 10 {
		t.Errorf("MaxPending() = %d, want 10", e.MaxPending())
	}
}
