package main

import (
	"fmt"
	"sort"
	"time"

	hybridmr "repro"
)

// dcPMs is the dc-10k workload's total PM count.
const dcPMs = 10000

// dcRun is the scale-up scenario of scalesweep.RunPoint, driven through
// the facade so that set-up is timed apart from the run: size/2 native
// PMs, size/2 hosts with 2 VMs each, and five waves of Sort jobs.
type dcRun struct {
	hc   *hybridmr.HybridCluster
	perf *hybridmr.PerfStats
	size int
	p    *probe
}

// setupDC builds the cluster. Like RunPoint it attaches a perfstat
// collector and seeds the deployment with seed+size, so the same seed
// and size reproduce RunPoint's cost counters and event count.
func setupDC(size int, seed int64, p *probe) (*dcRun, error) {
	perf := hybridmr.NewPerfStats()
	hc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs:      size / 2,
		VirtualHostPMs: (size + 1) / 2,
		VMsPerHost:     2,
		Seed:           seed + int64(size),
		Perf:           perf,
	})
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.perf = perf
		p.watchPMs(hc.Cluster.PMs())
	}
	return &dcRun{hc: hc, perf: perf, size: size, p: p}, nil
}

func (r *dcRun) close() { r.hc.Close() }

// dcWaves is the number of job-arrival waves, as in RunPoint.
const dcWaves = 5

// run submits the waves and runs the cluster until idle. Each submitted
// job is one operation, failed if it was refused or did not complete.
func (r *dcRun) run() (passResult, error) {
	var res passResult
	spec := hybridmr.Sort().WithInputMB(192)
	spec.Reduces = 2
	waveSize := max(r.size/12, 2)
	var jobs []*hybridmr.Job
	for w := 0; w < dcWaves; w++ {
		for j := 0; j < waveSize; j++ {
			deadline := time.Duration(0)
			if j%2 == 0 {
				deadline = 2 * time.Hour
			}
			var job *hybridmr.Job
			var err error
			r.p.submit(func() { job, _, err = r.hc.SubmitJob(spec, deadline, nil) })
			if err != nil {
				res.ops.check(false, "wave %d job %d: submit: %v", w, j, err)
				continue
			}
			jobs = append(jobs, job)
		}
		r.p.span("bench.run", func() { r.hc.RunFor(2 * time.Minute) })
	}
	r.p.span("bench.run", r.hc.RunUntilIdle)
	checkJobs(&res.ops, jobs)

	res.events = r.hc.System.Engine().Fired()
	sn := r.perf.Snapshot()
	res.counters = make(map[string]float64, len(sn.Counters))
	for name, v := range sn.Counters {
		res.counters[name] = float64(v)
	}
	res.spans = sn.Spans
	res.digest = countsDigest(res)
	res.summary = fmt.Sprintf("%d PMs, %d jobs, %d events, simulated %v", r.size, len(jobs), res.events, r.hc.Now())
	return res, nil
}

// checkJobs counts each job as one operation, failed unless it
// completed.
func checkJobs(o *ops, jobs []*hybridmr.Job) {
	for i, job := range jobs {
		o.check(job.Done(), "job %d (%s) did not complete", i, job.Spec.Name)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
