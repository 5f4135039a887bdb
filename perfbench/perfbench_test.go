package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	hybridmr "repro"
	"repro/internal/resource"
	"repro/internal/scalesweep"
)

func TestWrongDigestAndUnfinishedJobFail(t *testing.T) {
	exp := &expected{Digests: map[string]map[string]string{"dc-10k": {"1": "recorded"}}}
	var o ops
	exp.checkDigest(&o, "dc-10k", "1", "recorded", "")
	exp.checkDigest(&o, "dc-10k", "1", "other", "")
	// A seed with no recorded digest must repeat the run's first pass.
	exp.checkDigest(&o, "dc-10k", "2", "a", "a")
	exp.checkDigest(&o, "dc-10k", "2", "b", "a")
	if o.attempted != 4 || o.failed != 2 {
		t.Fatalf("digest checks: attempted %d failed %d, want 4 and 2", o.attempted, o.failed)
	}

	hc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{NativePMs: 2, VirtualHostPMs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	job, _, err := hc.SubmitJob(hybridmr.Sort().WithInputMB(1024), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hc.RunFor(time.Second)
	o = ops{}
	checkJobs(&o, []*hybridmr.Job{job})
	if o.attempted != 1 || o.failed != 1 {
		t.Fatalf("unfinished job: attempted %d failed %d, want 1 and 1", o.attempted, o.failed)
	}
	hc.RunUntilIdle()
	o = ops{}
	checkJobs(&o, []*hybridmr.Job{job})
	if o.failed != 0 {
		t.Fatalf("finished job counted as failed: %v", o.reasons)
	}
}

// TestDCMatchesScaleSweep pins the dc-10k scenario to
// scalesweep.RunPoint: for the same seed and size both fire the same
// events and count the same costs.
func TestDCMatchesScaleSweep(t *testing.T) {
	const size, seed = 384, 1
	want, _, err := scalesweep.RunPoint(size, scalesweep.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	r, err := setupDC(size, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runPass(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.ops.failed != 0 || res.ops.attempted != want.Jobs {
		t.Fatalf("ops: %d attempted, %d failed; want %d jobs, none failed", res.ops.attempted, res.ops.failed, want.Jobs)
	}
	if res.events != uint64(want.EventsFired) {
		t.Errorf("events fired: %d, RunPoint %d", res.events, want.EventsFired)
	}
	for name, v := range want.Counters {
		if got := res.counters[name]; got != float64(v) {
			t.Errorf("%s: %v, RunPoint %d", name, got, v)
		}
	}
	if len(res.counters) != len(want.Counters) {
		t.Errorf("%d counters, RunPoint %d", len(res.counters), len(want.Counters))
	}
}

func TestObserversLeaveChaosRunUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos deployment twice")
	}
	pass := func(observed bool) passResult {
		r, err := setupChaos(3, observed, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := runPass(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.ops.failed != 0 {
			t.Fatalf("observed=%v: %v", observed, res.ops.reasons)
		}
		return res
	}
	on, off := pass(true), pass(false)
	if on.fingerprint != off.fingerprint {
		t.Fatalf("observers changed the run: %s vs %s", on.summary, off.summary)
	}
}

func TestShareViolation(t *testing.T) {
	s := consumerSet{
		capacity: resource.NewVector(4, 1000, 100, 100),
		demands:  []resource.Vector{resource.NewVector(3, 400, 80, 10), resource.NewVector(3, 400, 80, 10)},
		weights:  []float64{1, 2},
		caps:     []resource.Vector{{}, resource.NewVector(1, 0, 0, 0)},
	}
	if bad := shareViolation(s, resource.ShareVector(s.capacity, s.demands, s.weights, s.caps)); bad != "" {
		t.Fatalf("ShareVector output rejected: %s", bad)
	}
	for name, out := range map[string][]resource.Vector{
		"allocation above its cap":    {resource.NewVector(2, 400, 50, 10), resource.NewVector(2, 400, 50, 10)},
		"allocation above its demand": {resource.NewVector(2, 500, 50, 10), resource.NewVector(1, 400, 50, 10)},
		"dimension above capacity":    {resource.NewVector(2, 400, 60, 10), resource.NewVector(1, 400, 60, 10)},
	} {
		if shareViolation(s, out) == "" {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with: go run . --spec > ../BENCHMARK.json")
	}
}
