package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	hybridmr "repro"
)

// The chaos-observed deployment: chaosPMs native PMs plus chaosPMs
// hosts with two VMs each, spread over racks and power domains, with two
// interactive services and chaosWaves waves of mixed batch jobs.
const (
	chaosPMs          = 256
	chaosRacks        = 16
	chaosPowerDomains = 4
	chaosWaves        = 6
	chaosWaveJobs     = 64
	chaosHorizon      = 60 * time.Minute
	// chaosJobLimit is the simulated time by which every job must have
	// finished; a job still running then counts as failed.
	chaosJobLimit = 8 * time.Hour
)

// chaosProfile is a dense rate-based fault profile: PM and VM crashes,
// block loss, stragglers and tracker hangs. Rack crashes and network
// partitions come on a fixed timetable instead (see run): a rack
// failure costs a whole rack of repairs, and a Poisson count of them
// would swing the run's cost from seed to seed more than everything
// else together. Power-domain crashes, a quarter of the fleet at once,
// are left out for the same reason.
func chaosProfile() *hybridmr.FaultProfile {
	return &hybridmr.FaultProfile{
		PMCrashPerHour:     12,
		VMCrashPerHour:     12,
		TrackerHangPerHour: 20,
		BlockLossPerHour:   30,
		StragglerPerHour:   16,
		Horizon:            chaosHorizon,
	}
}

// chaosJobs is the batch mix, cycled through job by job.
func chaosJobs() []hybridmr.JobSpec {
	return []hybridmr.JobSpec{
		hybridmr.Sort().WithInputMB(1024),
		hybridmr.Wcount().WithInputMB(768),
		hybridmr.DistGrep().WithInputMB(1024),
		hybridmr.Kmeans().WithInputMB(512),
	}
}

// chaosRun is one chaos-observed deployment. With observed set, every
// recording observer is attached: tracer, metrics, audit log, perfstat
// and the windowed time series (with SLO evaluation). The
// observers-off variant is the identical deployment without them.
//
// The recorder and the invariant checker are part of both variants:
// both schedule simulation events of their own (sampling ticks, and a
// zero-delay sweep after each burst of fault injections), so removing
// them changes the event count by construction: at seed 1, dropping the
// checker as well fires 13610 events instead of 13715.
type chaosRun struct {
	hc       *hybridmr.HybridCluster
	rec      *hybridmr.Recorder
	inv      *hybridmr.InvariantChecker
	seed     int64
	observed bool
	tracer   *hybridmr.Tracer
	audit    *hybridmr.AuditLog
	perf     *hybridmr.PerfStats
	ts       *hybridmr.TimeSeriesCollector
	p        *probe
}

func setupChaos(seed int64, observed bool, p *probe) (*chaosRun, error) {
	r := &chaosRun{inv: hybridmr.NewInvariantChecker(), seed: seed, observed: observed, p: p}
	spec := hybridmr.ClusterSpec{
		NativePMs:      chaosPMs,
		VirtualHostPMs: chaosPMs,
		VMsPerHost:     2,
		Racks:          chaosRacks,
		PowerDomains:   chaosPowerDomains,
		Seed:           seed,
		Faults:         &hybridmr.FaultOptions{Profile: chaosProfile()},
		Invariants:     r.inv,
	}
	if observed {
		r.tracer = hybridmr.NewTracer()
		r.audit = hybridmr.NewAuditLog(0)
		r.perf = hybridmr.NewPerfStats()
		r.ts = hybridmr.NewTimeSeries(0, 0)
		spec.Tracer = r.tracer
		spec.Metrics = hybridmr.NewMetricsRegistry()
		spec.Audit = r.audit
		spec.Perf = r.perf
		spec.TimeSeries = r.ts
	}
	hc, err := hybridmr.NewHybridCluster(spec)
	if err != nil {
		return nil, err
	}
	r.hc = hc
	for _, svc := range []struct {
		spec    hybridmr.ServiceSpec
		clients int
	}{{hybridmr.RUBiS(), 2500}, {hybridmr.TPCW(), 1500}} {
		s, err := hc.DeployService(svc.spec)
		if err != nil {
			hc.Close()
			return nil, fmt.Errorf("deploy %s: %w", svc.spec.Name, err)
		}
		s.SetClients(svc.clients)
	}
	// Only the observed variant's recorder feeds the time series.
	r.rec = hc.NewRecorder(0)
	if p != nil {
		p.perf = r.perf
		p.watchPMs(hc.Cluster.PMs())
	}
	return r, nil
}

func (r *chaosRun) close() { r.hc.Close() }

// run submits the job waves, runs until every job has finished and the
// fault horizon has passed, and checks the recovery. Operations: each
// job (must complete), the end-of-run DFS check (no block left
// under-replicated) and the invariant checker (no violation).
func (r *chaosRun) run() (passResult, error) {
	var res passResult
	mix := chaosJobs()
	var jobs []*hybridmr.Job
	// Correlated faults on a fixed timetable, on racks drawn from the
	// seed: a rack crash at every odd wave, repaired at the next wave,
	// and a 90 s network partition at every even wave after the first.
	rng := rand.New(rand.NewSource(r.seed))
	racks := r.hc.Cluster.Racks()
	var down []*hybridmr.PM
	repair := func() {
		for _, pm := range down {
			r.hc.Faults.RepairPM(pm)
		}
		down = nil
	}
	for w := 0; w < chaosWaves; w++ {
		r.p.span("fault.inject", func() {
			repair()
			rack := racks[rng.Intn(len(racks))]
			switch {
			case w%2 == 1:
				down = r.hc.Faults.CrashRack(rack)
			case w > 0:
				r.hc.Faults.PartitionRack(rack, 90*time.Second)
			}
		})
		for j := 0; j < chaosWaveJobs; j++ {
			spec := mix[(w*chaosWaveJobs+j)%len(mix)]
			deadline := time.Duration(0)
			if j%2 == 0 {
				deadline = 45 * time.Minute
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
		r.p.span("bench.run", func() { r.hc.RunFor(3 * time.Minute) })
	}
	r.p.span("fault.inject", repair)
	allDone := func() bool {
		for _, j := range jobs {
			if !j.Done() {
				return false
			}
		}
		return true
	}
	// Deployed services keep the engine busy forever, so run in steps
	// until the batch is done, then past the fault horizon so pending
	// repairs and re-replication finish.
	r.p.span("bench.run", func() {
		for !allDone() && r.hc.Now() < chaosJobLimit {
			r.hc.RunFor(time.Minute)
		}
		if settle := chaosHorizon + 10*time.Minute; r.hc.Now() < settle {
			r.hc.RunFor(settle - r.hc.Now())
		}
	})
	r.rec.Stop()

	checkJobs(&res.ops, jobs)
	under := 0
	for _, jt := range []*hybridmr.JobTracker{r.hc.NativeJT, r.hc.VirtualJT} {
		under += jt.FS().UnderReplicated()
	}
	res.ops.check(under == 0, "%d DFS blocks left under-replicated", under)
	vs := r.inv.Final()
	res.ops.check(len(vs) == 0, "%d invariant violations: %v", len(vs), vs)

	res.events = r.hc.System.Engine().Fired()
	summary := r.hc.Faults.Summary()
	var fp digester
	for i, job := range jobs {
		fp.add("jct", i, job.JCT().Nanoseconds())
	}
	fp.add("events", res.events)
	fp.add("faults", summary)
	res.fingerprint = fp.sum()
	res.summary = fmt.Sprintf("%d jobs, %d events, simulated %v, faults: %s", len(jobs), res.events, r.hc.Now(), summary)
	if !r.observed {
		res.digest = res.fingerprint
		return res, nil
	}

	var sloJSON []byte
	var err error
	r.p.span("bench.slo_eval", func() {
		slo, _ := hybridmr.EvaluateSLOs(r.ts, hybridmr.DefaultSLOObjectives())
		sloJSON, err = slo.JSON()
	})
	if err != nil {
		return res, fmt.Errorf("SLO report: %w", err)
	}
	var d digester
	d.add(res.fingerprint, string(sloJSON))
	r.p.span("bench.export", func() {
		err = r.export(io.Discard)
	})
	if err != nil {
		return res, err
	}

	res.traceRecords = r.tracer.Len()
	res.auditRecords = r.audit.Len()
	sn := r.perf.Snapshot()
	res.counters = make(map[string]float64, len(sn.Counters))
	for name, v := range sn.Counters {
		res.counters[name] = float64(v)
	}
	res.spans = sn.Spans
	res.digest = d.sum()
	return res, nil
}

// export writes the trace, the audit log and the time series, as a user
// debugging the run would.
func (r *chaosRun) export(w io.Writer) error {
	if err := r.tracer.WriteJSONL(w); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := r.audit.WriteJSONL(w); err != nil {
		return fmt.Errorf("audit export: %w", err)
	}
	if err := r.ts.WriteJSONL(w); err != nil {
		return fmt.Errorf("time-series export: %w", err)
	}
	return nil
}
