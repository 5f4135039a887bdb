// Package obs defines the observer scope of a simulation: every handle
// through which a run is traced, measured, audited, profiled or
// attributed. A scope is bound once, when the engine is built
// (sim.New), and every layer built on that engine — cluster, DFS,
// JobTracker, the HybridMR controllers, the profiler, the fault
// injector and the utilization recorder — reads it from the engine in
// its constructor. A new layer therefore observes by default: there is
// no per-layer wiring to forget.
//
// Every field is optional and every consumer is nil-safe; the zero
// Scope observes nothing. Observers never feed back into scheduling
// decisions, so a run is decision-identical whatever scope it carries.
package obs

import (
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/perfstat"
	"repro/internal/timeseries"
	"repro/internal/trace"
)

// Scope is a plain value holding no state of its own, so one value may
// be copied to many rigs. The handles it points to follow their own
// sharing rules: Fired is atomic and may be shared by concurrently
// running engines, while the tracer, registry, audit log, perf
// collector and time-series collector are per-rig.
type Scope struct {
	// Trace records structured spans and instant events. Its clock is
	// bound to the engine the scope is handed to.
	Trace *trace.Tracer
	// Metrics receives counters, gauges and histograms.
	Metrics *trace.Registry
	// Audit records every scheduling, migration and fault-recovery
	// decision. Its clock is bound to the engine.
	Audit *audit.Log
	// Perf collects algorithmic cost counters and wall-time spans. When
	// nil but Metrics is set, sim.New creates a fresh collector so the
	// counters surface in the registry as perfstat.* at each flush.
	Perf *perfstat.Stats
	// TimeSeries aggregates sim-clock-windowed telemetry.
	TimeSeries *timeseries.Collector
	// Fired accumulates the engine's fired-event total, flushed at
	// Run/RunUntil boundaries. Experiment runners share one counter
	// across every engine a figure builds — concurrent sweep points and
	// profiler training rigs included — to attribute events per run.
	Fired *atomic.Uint64
}
