package sim

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// The engine microbenchmarks cover the three hot paths of the simulator:
// steady-state schedule+fire (the common case: one event scheduled per
// event fired, queue depth roughly constant), schedule+cancel churn (the
// timer-wheel pattern every timeout/heartbeat follows: most scheduled
// events are cancelled before they fire), and the Ticker steady state
// that backs every periodic controller in the system.

// BenchmarkScheduleFire measures raw schedule+fire throughput at queue
// depth ~1: each iteration schedules one event and fires it.
func BenchmarkScheduleFire(b *testing.B) {
	e := New(obs.Scope{})
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, fn)
		e.Step()
	}
}

// benchDepth measures schedule+fire throughput with a standing queue of
// the given depth, which exercises the heap's sift paths.
func benchDepth(b *testing.B, depth int) {
	e := New(obs.Scope{})
	fn := func() {}
	for i := 0; i < depth; i++ {
		e.After(time.Duration(i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Duration(depth)*time.Millisecond, fn)
		e.Step()
	}
}

func BenchmarkScheduleFireDepth64(b *testing.B)    { benchDepth(b, 64) }
func BenchmarkScheduleFireDepth1024(b *testing.B)  { benchDepth(b, 1024) }
func BenchmarkScheduleFireDepth16384(b *testing.B) { benchDepth(b, 16384) }

// BenchmarkScheduleCancel measures the timeout pattern: schedule a far
// deadline, cancel it, schedule the next — the event almost never fires.
// A standing queue of live events keeps the heap honest.
func BenchmarkScheduleCancel(b *testing.B) {
	e := New(obs.Scope{})
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.After(time.Duration(i)*time.Hour, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(time.Minute, fn)
		e.Cancel(ev)
	}
}

// BenchmarkTickerSteadyState measures one periodic-controller tick:
// fire the tick callback and reschedule the next period.
func BenchmarkTickerSteadyState(b *testing.B) {
	e := New(obs.Scope{})
	tk := NewTicker(e, time.Second, func(time.Duration) {})
	defer tk.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
