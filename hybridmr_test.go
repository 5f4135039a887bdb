package hybridmr_test

import (
	"strings"
	"testing"
	"time"

	hybridmr "repro"
)

func TestHybridClusterEndToEnd(t *testing.T) {
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs:      4,
		VirtualHostPMs: 4,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	svc, err := dc.DeployService(hybridmr.RUBiS())
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClients(1500)

	var done int
	job, placement, err := dc.SubmitJob(hybridmr.Sort().WithInputMB(1024), 0, func(*hybridmr.Job) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	if placement != hybridmr.PlacedNative && placement != hybridmr.PlacedVirtual {
		t.Fatalf("placement = %v", placement)
	}
	rec := dc.NewRecorder(30 * time.Second)
	dc.RunFor(2 * time.Hour)
	rec.Stop()
	if !job.Done() || done != 1 {
		t.Fatalf("job incomplete (done=%v callbacks=%d)", job.Done(), done)
	}
	if job.JCT() <= 0 {
		t.Error("JCT not recorded")
	}
	if rec.EnergyWh() <= 0 {
		t.Error("no energy recorded")
	}
	if svc.SLAViolated() {
		t.Errorf("service violating SLA at steady state: %.0f ms", svc.LatencyMs())
	}
	if dc.Now() != 2*time.Hour {
		t.Errorf("Now() = %v", dc.Now())
	}
}

func TestHybridClusterValidation(t *testing.T) {
	if _, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	// Native-only cluster has nowhere to host services.
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{NativePMs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if _, err := dc.DeployService(hybridmr.RUBiS()); err == nil {
		t.Error("service deployed without a virtual partition")
	}
	job, placement, err := dc.SubmitJob(hybridmr.PiEst(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if placement != hybridmr.PlacedNative {
		t.Errorf("native-only placement = %v", placement)
	}
	dc.RunUntilIdle()
	if !job.Done() {
		t.Error("job incomplete")
	}
}

func TestVanillaHadoopBaselineIsSlower(t *testing.T) {
	run := func(vanilla bool) float64 {
		dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
			VirtualHostPMs: 4,
			Seed:           9,
			VanillaHadoop:  vanilla,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dc.Close()
		job, _, err := dc.SubmitJob(hybridmr.Sort().WithInputMB(2048), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		dc.RunUntilIdle()
		if !job.Done() {
			t.Fatal("job incomplete")
		}
		return job.JCT().Seconds()
	}
	vanilla := run(true)
	managed := run(false)
	if managed >= vanilla {
		t.Errorf("HybridMR (%.0fs) not faster than vanilla Hadoop (%.0fs)", managed, vanilla)
	}
}

func TestTopologyAndInvariantsFacade(t *testing.T) {
	inv := hybridmr.NewInvariantChecker()
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs:      4,
		VirtualHostPMs: 4,
		Racks:          2,
		PowerDomains:   2,
		Seed:           21,
		Invariants:     inv,
		Faults: &hybridmr.FaultOptions{
			Schedule: []hybridmr.ScheduledFault{
				{At: 90 * time.Second, Kind: hybridmr.FaultNetPartition, Target: "rack-1", Duration: 45 * time.Second},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	// Both partitions stripe into the same rack and power-domain labels.
	if got := dc.Cluster.Racks(); len(got) != 2 {
		t.Fatalf("Racks() = %v, want 2 labels", got)
	}
	if got := dc.Cluster.PowerDomains(); len(got) != 2 {
		t.Fatalf("PowerDomains() = %v, want 2 labels", got)
	}
	job, _, err := dc.SubmitJob(hybridmr.Sort().WithInputMB(1024), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dc.RunFor(time.Hour)
	if !job.Done() {
		t.Fatal("job incomplete after partition healed")
	}
	if vs := inv.Final(); len(vs) > 0 {
		t.Fatalf("invariant violated: %s", vs[0])
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	exps := hybridmr.Experiments()
	if len(exps) != 25 {
		t.Fatalf("registry has %d experiments, want 25 (every figure)", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := hybridmr.ExperimentByID(e.ID); !ok {
			t.Errorf("ByID(%s) failed", e.ID)
		}
	}
	if _, ok := hybridmr.ExperimentByID("fig99"); ok {
		t.Error("ByID accepted an unknown id")
	}
}

// TestFlushPerfKeySetsMatch checks that a Rig and a HybridCluster fold
// the same perfstat.* and engine.* key sets into their registries: both
// flush through the engine, so neither may drift from the other.
func TestFlushPerfKeySetsMatch(t *testing.T) {
	keys := func(reg *hybridmr.MetricsRegistry) map[string]bool {
		snap := reg.Snapshot()
		out := map[string]bool{}
		for name := range snap.Counters {
			if strings.HasPrefix(name, "perfstat.") {
				out[name] = true
			}
		}
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "engine.") {
				out[name] = true
			}
		}
		return out
	}
	rigReg := hybridmr.NewMetricsRegistry()
	rig, err := hybridmr.NewRig(hybridmr.RigOptions{PMs: 2, Seed: 3, Obs: hybridmr.ObsScope{Metrics: rigReg}})
	if err != nil {
		t.Fatal(err)
	}
	if rig.Perf == nil {
		t.Fatal("metrics rig built no perf collector")
	}
	if _, err := rig.RunJob(hybridmr.PiEst()); err != nil {
		t.Fatal(err)
	}

	dcReg := hybridmr.NewMetricsRegistry()
	dc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{NativePMs: 2, VirtualHostPMs: 2, Seed: 3, Metrics: dcReg})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if dc.Perf == nil {
		t.Fatal("metrics deployment built no perf collector")
	}
	dc.RunFor(time.Minute)

	rk, dk := keys(rigReg), keys(dcReg)
	if len(rk) == 0 {
		t.Fatal("rig flushed no perfstat.* or engine.* keys")
	}
	for k := range rk {
		if !dk[k] {
			t.Errorf("%s flushed by Rig.FlushPerf but not HybridCluster.FlushPerf", k)
		}
	}
	for k := range dk {
		if !rk[k] {
			t.Errorf("%s flushed by HybridCluster.FlushPerf but not Rig.FlushPerf", k)
		}
	}
}
