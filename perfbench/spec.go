package main

import (
	"encoding/json"

	"repro/internal/experiments"
)

// metricSpec declares one reported metric. Bound (end-to-end metrics
// only) is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd lists the metrics of the untraced run, reported per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"wall_s", "s", "lower", bound(0.25)},
	{"cpu_s", "s", "lower", bound(0.25)},
	{"events_per_s", "events/s", "higher", bound(0.25)},
	{"allocs_per_event", "objects/event", "lower", bound(0.1)},
	{"bytes_per_event", "B/event", "lower", bound(0.1)},
	{"gc_cpu_frac", "ratio", "lower", bound(0.15)},
	{"peak_rss_mb", "MiB", "lower", bound(0.25)},
	{"ok_frac", "ratio", "higher", bound(0.0001)},
}

// layerMetrics lists the metrics of the traced run. Every workload
// reports all of them; a layer the workload does not reach reads 0.
func layerMetrics() []metricSpec {
	l := func(name, unit, better string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: better} }
	out := []metricSpec{
		l("sim.events", "count", "lower"),
		l("sim.pump_self_s", "s", "lower"),
		l("sim.heap_ops_per_event", "ops/event", "lower"),
		l("cluster.resolves", "count", "lower"),
		l("cluster.resolves_per_event", "ratio", "lower"),
		l("cluster.consumers_per_resolve_p50", "count", "lower"),
		l("cluster.consumers_per_resolve_p99", "count", "lower"),
		l("resource.share_calls", "count", "lower"),
		l("resource.share_ns_p50", "ns", "lower"),
		l("resource.share_ns_p99", "ns", "lower"),
	}
	for _, b := range shareBuckets {
		out = append(out, l("resource.share_ns_p50."+b.name, "ns", "lower"))
	}
	out = append(out,
		l("resource.share_allocs_per_call", "objects/call", "lower"),
		l("mapred.schedule_self_s", "s", "lower"),
		l("mapred.speculate_self_s", "s", "lower"),
		l("jt.pairs_per_schedule", "ratio", "lower"),
		l("jt.pressure_probes_per_schedule", "ratio", "lower"),
		l("dfs.placement_self_s", "s", "lower"),
		l("dfs.draws_per_block", "ratio", "lower"),
		l("dfs.repair_scans", "count", "lower"),
		l("core.submit_us_p50", "us", "lower"),
		l("core.submit_us_p99", "us", "lower"),
		l("core.phase1_self_s", "s", "lower"),
		l("core.drm_self_s", "s", "lower"),
		l("core.ips_self_s", "s", "lower"),
		l("p1.training_runs", "count", "lower"),
		l("p1.entries_per_estimate", "ratio", "lower"),
		l("drm.nodes_per_sweep", "ratio", "lower"),
		l("fault.inject_self_s", "s", "lower"),
		l("fault.injections", "count", "lower"),
		l("obs.overhead_s", "s", "lower"),
		l("obs.trace_records", "count", "lower"),
		l("obs.audit_records", "count", "lower"),
		l("obs.slo_eval_s", "s", "lower"),
		l("obs.export_s", "s", "lower"),
		l("figures.fidelity_failed", "count", "lower"),
	)
	for _, e := range append(experiments.All(), experiments.Extensions()...) {
		out = append(out, l("figures."+e.ID+"_s", "s", "lower"))
	}
	return append(out,
		l("gc.cycles", "count", "lower"),
		l("trace_overhead_frac", "ratio", "lower"),
	)
}

// benchSpec is the BENCHMARK.json document.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run of the benchmark measures.
const runSeconds = 30

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() ([]byte, error) {
	s := benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   layerMetrics(),
	}
	for _, w := range workloads(nil) {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
