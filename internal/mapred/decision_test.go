package mapred

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/resource"
)

// refAssignCandidates is assignCandidates as it was written before it
// skipped trackers that cannot make the list: it scores every free
// tracker, then drops those past the cap. It is the reference for the
// records, their order and their scores.
func refAssignCandidates(jt *JobTracker, kind TaskKind, chosen *TaskTracker) []audit.Candidate {
	const maxCandidates = 8
	var out []audit.Candidate
	for _, tr := range jt.trackers {
		if tr != chosen && (tr.disabled || tr.lost || tr.FreeSlots(kind) <= 0) {
			continue
		}
		c := audit.Candidate{
			Name:   tr.Compute.Name(),
			Score:  trackerPressure(tr),
			Chosen: tr == chosen,
			Note:   "machine pressure",
		}
		if len(out) == maxCandidates {
			if tr != chosen {
				continue
			}
			out[len(out)-1] = c
			continue
		}
		out = append(out, c)
	}
	return out
}

// TestAssignCandidatesMatchesScoreEverything compares the audit
// candidate list with the score-everything reference over random free
// sets: trackers busy, disabled or lost at random, machines under
// random load, and the chosen tracker inside the cap, beyond it, or
// itself not free.
func TestAssignCandidatesMatchesScoreEverything(t *testing.T) {
	_, jt := rig(t, 24, Config{}, nil)
	rng := rand.New(rand.NewSource(5))
	for _, tr := range jt.trackers {
		for j := rng.Intn(4); j > 0; j-- {
			con := &cluster.Consumer{Name: "load", Demand: resource.NewVector(rng.Float64(), 100*rng.Float64(), 20*rng.Float64(), 5), Work: 1e9}
			if err := tr.Compute.Start(con); err != nil {
				t.Fatal(err)
			}
		}
	}
	var inCap, beyondCap, notFree int
	for trial := 0; trial < 500; trial++ {
		freeShare := rng.Float64()
		for _, tr := range jt.trackers {
			tr.mapRunning, tr.redsRunning = jt.cfg.MapSlots, jt.cfg.ReduceSlots
			if rng.Float64() < freeShare {
				tr.mapRunning = rng.Intn(jt.cfg.MapSlots)
				tr.redsRunning = rng.Intn(jt.cfg.ReduceSlots)
			}
			tr.disabled = rng.Intn(10) == 0
			tr.lost = rng.Intn(10) == 0
		}
		chosen := jt.trackers[rng.Intn(len(jt.trackers))]
		for _, kind := range []TaskKind{MapTask, ReduceTask} {
			want := refAssignCandidates(jt, kind, chosen)
			got := jt.assignCandidates(kind, chosen)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d kind %s: candidates\n got %+v\nwant %+v", trial, kind, got, want)
			}
			switch pos := slices.IndexFunc(want, func(c audit.Candidate) bool { return c.Chosen }); {
			case chosen.disabled || chosen.lost || chosen.FreeSlots(kind) <= 0:
				notFree++
			case pos < 7 || len(want) < 8:
				inCap++
			default:
				beyondCap++
			}
		}
	}
	if inCap == 0 || beyondCap == 0 || notFree == 0 {
		t.Fatalf("coverage: chosen in cap %d, beyond cap %d, not free %d; want every case", inCap, beyondCap, notFree)
	}
}

// TestTaskIDCachedMatchesSprintf checks every task's cached ID against
// the formatted form after runs whose attempts were killed and
// re-executed, across several jobs so job IDs differ.
func TestTaskIDCachedMatchesSprintf(t *testing.T) {
	engine, jt := rig(t, 3, Config{}, nil)
	var jobs []*Job
	for _, spec := range []JobSpec{sortLike(512), piLike(), sortLike(256)} {
		job, err := jt.Submit(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	killed := 0
	engine.After(5*time.Second, func() {
		for _, a := range jt.RunningAttempts() {
			a.Consumer().Kill()
			killed++
		}
	})
	engine.Run()
	if killed == 0 {
		t.Fatal("nothing was killed; the run has no re-executions")
	}
	for _, job := range jobs {
		if !job.Done() {
			t.Fatalf("job %d did not complete", job.ID)
		}
		for _, task := range append(job.Maps(), job.Reduces()...) {
			want := fmt.Sprintf("%s-%d/%s-%d", job.Spec.Name, job.ID, task.Kind, task.Index)
			if got := task.ID(); got != want {
				t.Errorf("ID() = %q, want %q", got, want)
			}
		}
	}
}
