package sim

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// TestNewBindsScope checks what New does with a scope: the tracer and
// audit clocks read the engine, a metrics-only scope gets a perf
// collector, the sim.* probes are registered, and FlushObs folds each
// perf increment into the registry exactly once.
func TestNewBindsScope(t *testing.T) {
	var fired atomic.Uint64
	tr := trace.New(nil)
	reg := trace.NewRegistry()
	log := audit.New(0)
	ts := timeseries.New(0, 0)
	e := New(obs.Scope{Trace: tr, Metrics: reg, Audit: log, TimeSeries: ts, Fired: &fired})
	sc := e.Obs()
	if sc.Perf == nil {
		t.Fatal("metrics scope without Perf got no collector")
	}
	if sc.Trace != tr || sc.Metrics != reg || sc.Audit != log || sc.TimeSeries != ts || sc.Fired != &fired {
		t.Fatal("Obs does not return the bound handles")
	}
	e.After(3*time.Second, func() {
		tr.Instant("t", "c", "n")
		log.Add("s", "a", "x", "y", "z")
	})
	e.Run()
	if ev := tr.Events(); len(ev) != 1 || ev[0].Start != 3*time.Second {
		t.Errorf("tracer clock not bound to the engine: %+v", ev)
	}
	if rs := log.Records(); len(rs) != 1 || rs[0].At != 3*time.Second {
		t.Errorf("audit clock not bound to the engine: %+v", rs)
	}
	if fired.Load() != 1 {
		t.Errorf("Fired = %d, want 1", fired.Load())
	}
	probes := map[string]bool{}
	ts.SampleProbes(e.Now())
	for _, s := range ts.Snapshot() {
		probes[s.Name] = true
	}
	for _, name := range []string{"sim.events", "sim.pending_events", "sim.freelist_events", "sim.cancel_debt"} {
		if !probes[name] {
			t.Errorf("probe %s not registered", name)
		}
	}
	e.FlushObs()
	e.FlushObs()
	snap := reg.Snapshot()
	if got := snap.Counters["perfstat.engine.events_fired"]; got != 1 {
		t.Errorf("perfstat.engine.events_fired = %v after two flushes, want 1", got)
	}
	if _, ok := snap.Gauges["engine.pending_events"]; !ok {
		t.Error("engine gauges not flushed")
	}
}

// TestZeroScopeObservesNothing pins the unobserved engine: no perf
// collector is invented without a registry, and FlushObs is a no-op.
func TestZeroScopeObservesNothing(t *testing.T) {
	e := New(obs.Scope{})
	if e.Obs() != (obs.Scope{}) {
		t.Fatalf("zero scope came back as %+v", e.Obs())
	}
	e.After(time.Second, func() {})
	e.Run()
	e.FlushObs()
}
