package sim

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perfstat"
)

// TestEnginePerfCounters verifies the batched flush of heap-op counters
// into an attached perfstat collector at Run/RunUntil boundaries.
func TestEnginePerfCounters(t *testing.T) {
	ps := perfstat.New()
	e := New(obs.Scope{Perf: ps})
	for i := 0; i < 10; i++ {
		e.After(time.Duration(i)*time.Second, func() {})
	}
	e.RunUntil(4 * time.Second)
	if got := ps.C.EngineEventsFired; got != 5 {
		t.Errorf("EngineEventsFired = %d after RunUntil(4s), want 5", got)
	}
	e.Run()
	if got := ps.C.EngineEventsFired; got != 10 {
		t.Errorf("EngineEventsFired = %d after Run, want 10", got)
	}
	if ps.C.EngineHeapPushes != 10 {
		t.Errorf("EngineHeapPushes = %d, want 10", ps.C.EngineHeapPushes)
	}
	if ps.C.EngineHeapPops != 10 {
		t.Errorf("EngineHeapPops = %d, want 10", ps.C.EngineHeapPops)
	}
	if ps.C.EngineHeapSiftSwaps == 0 {
		t.Error("EngineHeapSiftSwaps = 0, want sift activity from a 10-deep queue")
	}
	// The pump span telescopes and was entered twice (RunUntil + Run).
	sn := ps.Snapshot()
	if len(sn.Spans) != 1 || sn.Spans[0].Name != "engine.pump" {
		t.Fatalf("span roots = %+v, want engine.pump", sn.Spans)
	}
	if sn.Spans[0].Count != 2 {
		t.Errorf("engine.pump count = %d, want 2", sn.Spans[0].Count)
	}
	if v := perfstat.Telescopes(sn.Spans, 0); v != "" {
		t.Errorf("telescoping invariant violated at %q", v)
	}
}

// TestEnginePerfCompactions verifies cancel-churn compactions reach the
// collector.
func TestEnginePerfCompactions(t *testing.T) {
	ps := perfstat.New()
	e := New(obs.Scope{Perf: ps})
	for i := 0; i < 10_000; i++ {
		e.Cancel(e.After(time.Hour, func() {}))
	}
	e.Run()
	if ps.C.EngineCompactions == 0 {
		t.Error("EngineCompactions = 0 after heavy cancel churn, want > 0")
	}
}

// TestPumpZeroAllocsPerfEnabled extends the PR 3 zero-alloc guarantee to
// the instrumented pump: with a perfstat collector attached, the warm
// schedule+pump loop (including the span Enter/Exit and the counter
// flush) must still allocate nothing.
func TestPumpZeroAllocsPerfEnabled(t *testing.T) {
	e := New(obs.Scope{Perf: perfstat.New()})
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i), fn)
	}
	e.Run() // warm: freelist, queue backing array, and the pump span node
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("instrumented pump (perf enabled) allocates %.1f/op, want 0", allocs)
	}
}

// TestPumpZeroAllocsPerfDisabled pins the disabled path: with no
// collector attached the same loop is equally allocation-free (the
// instrumentation is nil checks and engine-local integer adds).
func TestPumpZeroAllocsPerfDisabled(t *testing.T) {
	e := New(obs.Scope{})
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("instrumented pump (perf disabled) allocates %.1f/op, want 0", allocs)
	}
}

// TestCancelZeroAllocsPerfEnabled extends the cancel-churn zero-alloc
// guarantee to the instrumented compactor.
func TestCancelZeroAllocsPerfEnabled(t *testing.T) {
	e := New(obs.Scope{Perf: perfstat.New()})
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.Cancel(e.After(time.Hour, fn))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.After(time.Hour, fn))
	})
	if allocs != 0 {
		t.Errorf("instrumented schedule+cancel churn allocates %.1f/op, want 0", allocs)
	}
}
