// Command perfbench is the simulator's benchmark. It runs one workload
// for a fixed host-time budget and prints, as the last line of standard
// output, one JSON object with the end-to-end metrics of an untraced run
// (--trace 0) or the per-layer metrics of a traced run (--trace 1),
// after checking every output of the workload.
//
//	go run . --workload dc-10k --seed 1 --seconds 30 --trace 0
//
// --spec prints the BENCHMARK.json these tables describe; --record
// re-records the expected output digests into expected.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/perfstat"
)

// passResult is what one pass of a workload produced.
type passResult struct {
	events uint64
	digest string
	ops    ops
	// counters are the perfstat cost counters; spans the perfstat span
	// tree (nil where the workload builds its rigs internally).
	counters map[string]float64
	spans    []perfstat.SpanSnapshot
	// figureS is each experiment's wall time (figures, traced only).
	figureS        map[string]float64
	fidelityFailed []string
	traceRecords   int
	auditRecords   int
	// fingerprint hashes what observers must not change: per-job JCTs,
	// events fired and the fault summary (chaos-observed only).
	fingerprint string
	// summary describes the pass in one line for the log.
	summary string
}

// instance is a workload after set-up, ready to run once.
type instance interface {
	run() (passResult, error)
	close()
}

type workload struct {
	name, why string
	// seedKey names the expected-digest entry of a seed.
	seedKey func(seed int64) string
	// setupBatch set-ups are timed together for one setup_s sample, for
	// a set-up too short to time alone.
	setupBatch int
	setup      func(seed int64, p *probe) (instance, error)
	// off, when non-nil, builds the same deployment with every observer
	// off; the traced run checks that it runs identically.
	off func(seed int64) (instance, error)
}

func decimalSeed(seed int64) string { return strconv.FormatInt(seed, 10) }

func workloads(exp *expected) []workload {
	var known []string
	if exp != nil {
		known = exp.KnownFidelityFailures
	}
	return []workload{
		{
			name:       "figures",
			why:        "every paper figure and extension study at scale 1.0: small clusters where PM resolve and the fair-share kernel do most of the work",
			seedKey:    func(int64) string { return figuresSeedKey },
			setupBatch: 1000,
			setup: func(_ int64, p *probe) (instance, error) {
				return setupFigures(known, p), nil
			},
		},
		{
			name:    "dc-10k",
			why:     "the 10000-PM scale-up point: JobTracker slot index, DFS placement and GC marking dominate; each fair-share call is cheap",
			seedKey: decimalSeed,
			setup: func(seed int64, p *probe) (instance, error) {
				return setupDC(dcPMs, seed, p)
			},
		},
		{
			name:    "chaos-observed",
			why:     "faults and every observer on: DFS repair, JT re-execution, Phase I on each submit, and the trace/audit/time-series layers",
			seedKey: decimalSeed,
			setup: func(seed int64, p *probe) (instance, error) {
				return setupChaos(seed, true, p)
			},
			off: func(seed int64) (instance, error) {
				return setupChaos(seed, false, nil)
			},
		},
	}
}

// timedSetup builds one instance and returns it with the mean set-up
// time of a batch of w.setupBatch set-ups.
func (w workload) timedSetup(seed int64, p *probe) (instance, float64, error) {
	n := max(w.setupBatch, 1)
	runtime.GC()
	start := time.Now()
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = w.setup(seed, p); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	return inst, time.Since(start).Seconds() / float64(n), nil
}

// pass sets up and runs one pass, checks its output digest and adds its
// operations to o. *first is the digest of the run's first pass.
func (w workload) pass(exp *expected, seed int64, p *probe, first *string, o *ops) (passResult, runCost, float64, error) {
	inst, setupS, err := w.timedSetup(seed, p)
	if err != nil {
		return passResult{}, runCost{}, 0, err
	}
	res, cost, err := runPass(inst)
	if err != nil {
		return passResult{}, runCost{}, 0, fmt.Errorf("%s: %w", w.name, err)
	}
	exp.checkDigest(o, w.name, w.seedKey(seed), res.digest, *first)
	if *first == "" {
		*first = res.digest
	}
	o.add(res.ops)
	return res, cost, setupS, nil
}

// runPass runs one freshly set-up instance and measures it.
func runPass(inst instance) (passResult, runCost, error) {
	defer inst.close()
	var res passResult
	cost, err := timeRun(func() error {
		var err error
		res, err = inst.run()
		return err
	})
	return res, cost, err
}

// again reports whether another pass taking about last fits, at least
// half of it, before deadline.
func again(deadline time.Time, last time.Duration) bool {
	return time.Until(deadline) > last/2
}

// minSetups is the least number of set-up samples behind setup_s.
const minSetups = 31

// measure is the untraced run: whole passes (set-up, then the workload
// to completion) until the budget is spent, reporting medians.
func measure(w workload, exp *expected, seed int64, budget time.Duration) (map[string]float64, ops, error) {
	deadline := time.Now().Add(budget)
	var o ops
	var setups, walls, cpus, eps, apes, bpes, gcfs []float64
	first := ""
	for {
		start := time.Now()
		res, cost, setupS, err := w.pass(exp, seed, nil, &first, &o)
		if err != nil {
			return nil, o, err
		}
		ev := float64(res.events)
		setups = append(setups, setupS)
		walls = append(walls, cost.wallS)
		cpus = append(cpus, cost.cpuS)
		eps = append(eps, ratio(ev, cost.wallS))
		apes = append(apes, ratio(float64(cost.allocObjs), ev))
		bpes = append(bpes, ratio(float64(cost.allocB), ev))
		gcfs = append(gcfs, ratio(cost.gcCPU, cost.totalCPU))
		if len(walls) == 1 {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, res.summary)
			for _, f := range res.fidelityFailed {
				fmt.Fprintf(os.Stderr, "%s: fidelity assertion failed: %s\n", w.name, f)
			}
		}
		if !again(deadline, time.Since(start)) {
			break
		}
	}
	for len(setups) < minSetups {
		inst, setupS, err := w.timedSetup(seed, nil)
		if err != nil {
			return nil, o, err
		}
		inst.close()
		setups = append(setups, setupS)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, o, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes (wall s %.3f), %d set-ups, %d operations, %d failed\n",
		w.name, len(walls), walls, len(setups), o.attempted, o.failed)
	return map[string]float64{
		"setup_s":          median(setups),
		"wall_s":           median(walls),
		"cpu_s":            median(cpus),
		"events_per_s":     median(eps),
		"allocs_per_event": median(apes),
		"bytes_per_event":  median(bpes),
		"gc_cpu_frac":      median(gcfs),
		"peak_rss_mb":      rss,
		"ok_frac":          ratio(float64(o.attempted-o.failed), float64(o.attempted)),
	}, o, nil
}

// measureTraced is the traced run. Each round runs an untraced pass, a
// traced pass and, for chaos-observed, an observers-off pass, until the
// budget is spent; per-layer times are medians over the traced passes.
// Counts repeat exactly between traced passes, and that is checked.
func measureTraced(w workload, exp *expected, seed int64, budget time.Duration) (map[string]float64, ops, error) {
	deadline := time.Now().Add(budget)
	var o ops
	var untraced, traced, off, gcCycles []float64
	var passes []map[string]float64
	var firstProbe *probe
	first, firstCounts := "", ""
	for {
		start := time.Now()
		_, cost, _, err := w.pass(exp, seed, nil, &first, &o)
		if err != nil {
			return nil, o, err
		}
		untraced = append(untraced, cost.wallS)
		gcCycles = append(gcCycles, float64(cost.gcCycles))

		p := newProbe(seed)
		tres, tcost, _, err := w.pass(exp, seed, p, &first, &o)
		if err != nil {
			return nil, o, err
		}
		traced = append(traced, tcost.wallS)
		counts := countsDigest(tres)
		o.check(firstCounts == "" || counts == firstCounts, "%s: sim.events and perfstat counters differ between traced passes", w.name)
		if firstCounts == "" {
			firstCounts = counts
		}
		passes = append(passes, layerNumbers(tres, p))
		if firstProbe == nil {
			firstProbe = p
		}

		if w.off != nil {
			inst, err := w.off(seed)
			if err != nil {
				return nil, o, fmt.Errorf("%s observers-off set-up: %w", w.name, err)
			}
			ores, ocost, err := runPass(inst)
			if err != nil {
				return nil, o, fmt.Errorf("%s observers off: %w", w.name, err)
			}
			o.add(ores.ops)
			o.check(ores.fingerprint == tres.fingerprint,
				"%s: observers changed the run (JCTs, events or fault summary differ with observers off)", w.name)
			off = append(off, ocost.wallS)
		}
		if !again(deadline, time.Since(start)) {
			break
		}
	}

	out := make(map[string]float64)
	for name := range passes[0] {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = p[name]
		}
		out[name] = median(vals)
	}
	rep := replayShare(firstProbe.watch.sets, &o)
	out["resource.share_calls"] = float64(rep.calls)
	out["resource.share_ns_p50"] = rep.nsP50
	out["resource.share_ns_p99"] = rep.nsP99
	for i, b := range shareBuckets {
		out["resource.share_ns_p50."+b.name] = rep.bucketP50[i]
	}
	out["resource.share_allocs_per_call"] = rep.allocsPerCall
	out["gc.cycles"] = median(gcCycles)
	out["trace_overhead_frac"] = ratio(median(traced), median(untraced)) - 1
	if len(off) > 0 {
		out["obs.overhead_s"] = median(untraced) - median(off)
	}
	fmt.Fprintf(os.Stderr, "%s traced: %d rounds, %d replayed ShareVector calls, %d operations, %d failed\n",
		w.name, len(traced), rep.calls, o.attempted, o.failed)
	return out, o, nil
}

// countsDigest hashes a pass's event count and perfstat cost counters.
func countsDigest(r passResult) string {
	var d digester
	d.add("events", r.events)
	for _, name := range sortedKeys(r.counters) {
		d.add(name, r.counters[name])
	}
	return d.sum()
}

// layerNumbers derives the per-layer metrics of one traced pass.
func layerNumbers(r passResult, p *probe) map[string]float64 {
	c := r.counters
	ev := float64(r.events)
	self := func(span string) float64 { return spanSelf(r.spans, span) }
	m := map[string]float64{
		"sim.events":                        ev,
		"sim.pump_self_s":                   self("engine.pump"),
		"sim.heap_ops_per_event":            ratio(c["engine.heap_pushes"]+c["engine.heap_pops"], c["engine.events_fired"]),
		"cluster.resolves":                  float64(p.watch.resolves),
		"cluster.resolves_per_event":        ratio(float64(p.watch.resolves), ev),
		"cluster.consumers_per_resolve_p50": p.watch.consumersQuantile(0.5),
		"cluster.consumers_per_resolve_p99": p.watch.consumersQuantile(0.99),
		"mapred.schedule_self_s":            self("mapred.schedule"),
		"mapred.speculate_self_s":           self("mapred.speculate"),
		"jt.pairs_per_schedule":             ratio(c["jt.pairs_scanned"], c["jt.schedule_calls"]),
		"jt.pressure_probes_per_schedule":   ratio(c["jt.pressure_probes"], c["jt.schedule_calls"]),
		"dfs.placement_self_s":              self("dfs.placement"),
		"dfs.draws_per_block":               ratio(c["dfs.placement_draws"], c["dfs.blocks_placed"]),
		"dfs.repair_scans":                  c["dfs.repair_scans"],
		"core.submit_us_p50":                quantile(p.submitUS, 0.5),
		"core.submit_us_p99":                quantile(p.submitUS, 0.99),
		"core.phase1_self_s":                self("core.phase1"),
		"core.drm_self_s":                   self("core.drm"),
		"core.ips_self_s":                   self("core.ips"),
		"p1.training_runs":                  c["p1.training_runs"],
		"p1.entries_per_estimate":           ratio(c["p1.profile_entries_scanned"], c["p1.estimates"]),
		"drm.nodes_per_sweep":               ratio(c["drm.nodes_scanned"], c["drm.sweeps"]),
		"fault.inject_self_s":               self("fault.inject"),
		"fault.injections":                  c["fault.injections"],
		"obs.trace_records":                 float64(r.traceRecords),
		"obs.audit_records":                 float64(r.auditRecords),
		"obs.slo_eval_s":                    self("bench.slo_eval"),
		"obs.export_s":                      self("bench.export"),
		"figures.fidelity_failed":           float64(len(r.fidelityFailed)),
	}
	for id, s := range r.figureS {
		m["figures."+id+"_s"] = s
	}
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: figures, dc-10k or chaos-observed")
	seed := fs.Int64("seed", 1, "workload seed (figures: not used, its seeds are fixed inside the experiments)")
	seconds := fs.Int("seconds", runSeconds, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1 for the traced run's per-layer metrics, 0 for the end-to-end metrics")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	record := fs.String("record", "", "record the expected output digests into this file and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *spec {
		b, err := specJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	if *record != "" {
		return recordExpected(exp, *record)
	}

	var w *workload
	for _, c := range workloads(exp) {
		if c.name == *name {
			c := c
			w = &c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (figures, dc-10k, chaos-observed)", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if w.name == "figures" {
		fmt.Fprintln(os.Stderr, "figures: seeds are fixed inside the experiments; --seed is not used")
	}

	budget := time.Duration(*seconds) * time.Second
	var nums map[string]float64
	var o ops
	var specs []metricSpec
	if *traced == 1 {
		specs = layerMetrics()
		nums, o, err = measureTraced(*w, exp, *seed, budget)
	} else {
		specs = endToEnd
		nums, o, err = measure(*w, exp, *seed, budget)
	}
	if err != nil {
		return err
	}
	for i, r := range o.reasons {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "... and %d more failures\n", len(o.reasons)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAILED:", r)
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v := nums[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// recordedSeeds is how many seeds, from 0, of the seeded workloads
// expected.json records.
const recordedSeeds = 32

// recordExpected runs every workload once per recorded seed and writes
// their output digests, keeping the known fidelity failures.
func recordExpected(exp *expected, path string) error {
	out := expected{
		Digests:               make(map[string]map[string]string),
		KnownFidelityFailures: exp.KnownFidelityFailures,
	}
	for _, w := range workloads(exp) {
		n := int64(recordedSeeds)
		if w.seedKey(0) == figuresSeedKey {
			n = 1
		}
		out.Digests[w.name] = make(map[string]string)
		for s := int64(0); s < n; s++ {
			inst, err := w.setup(s, nil)
			if err != nil {
				return err
			}
			res, _, err := runPass(inst)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			if res.ops.failed > 0 {
				return fmt.Errorf("%s seed %d: %d operations failed, first: %s", w.name, s, res.ops.failed, res.ops.reasons[0])
			}
			out.Digests[w.name][w.seedKey(s)] = res.digest
			fmt.Fprintf(os.Stderr, "%s seed %s: %s\n", w.name, w.seedKey(s), res.digest)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
