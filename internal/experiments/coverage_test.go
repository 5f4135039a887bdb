package experiments

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestLayersObserveByDefault builds a metrics-carrying rig, adds a
// native JobTracker and a HybridMR System on its engine with no further
// wiring, and runs one job on the native partition. Every layer built on
// the engine must record into the rig's registry: the System's Phase I
// placement counter, its DRM counters, and the native JobTracker's
// mapred.* counters (the virtual JobTracker runs nothing here).
func TestLayersObserveByDefault(t *testing.T) {
	var fired atomic.Uint64
	reg := trace.NewRegistry()
	h, err := newHybridRig(2, 2, 5, true, &fired, reg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(h.engine, h.cluster, h.nativeJT, h.virtualJT, core.Config{TrainingSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	sys.Placer = policy.StaticPlacer(core.PlacedNative)
	job, placed, err := sys.SubmitJob(workload.Sort().WithInputMB(256), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if placed != core.PlacedNative {
		t.Fatalf("placed %v, want native", placed)
	}
	h.engine.Run()
	h.rig.FlushPerf()
	if !job.Done() {
		t.Fatal("job did not finish")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"core.placements":       1,
		"mapred.jobs.completed": 1,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"drm.cap_adjustments", "mapred.attempts.speculative", "dfs.reads.node_local", "perfstat.jt.schedule_calls"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s missing from the rig registry", name)
		}
	}
	if snap.Histograms["mapred.attempt.duration_sec"].Count == 0 {
		t.Error("native attempts not recorded in mapred.attempt.duration_sec")
	}
	if fired.Load() != h.engine.Fired() {
		t.Errorf("fired sink = %d, engine fired %d", fired.Load(), h.engine.Fired())
	}
}
