// Command hybridmr-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	hybridmr-bench [-scale 1.0] [-parallel 8] [-only fig1a,fig8b] [-list] [-json] [-check]
//
// Each experiment prints the same rows/series the paper plots, followed
// by headline notes comparing measured numbers against the paper's
// claims. Running everything at -scale 1 takes a few minutes; smaller
// scales shrink the input data sizes proportionally.
//
// Independent sweep points within each experiment fan out across
// -parallel worker goroutines (default: GOMAXPROCS). Every sweep point
// builds its own seeded simulation, and results are assembled in a fixed
// order, so tables and notes are byte-identical at any worker count —
// only the wall-clock time changes.
//
// With -json, each experiment additionally writes a BENCH_<id>.json file
// recording its wall-clock time, simulation events fired and events per
// second, so the performance trajectory can be tracked across revisions.
// Events are attributed per experiment through engine sinks, so the
// totals stay exact even when sweep points run concurrently. Records
// also embed the experiment's merged metrics-registry snapshot (scheduler
// counters, utilization gauges, latency histogram quantiles) and, where
// the experiment surfaces them, per-benchmark critical-path summaries;
// the merge is order-independent, so these too are byte-identical at any
// worker count.
//
// With -check, every experiment's outcome is additionally judged against
// the paper-fidelity assertion suite (internal/fidelity): the headline
// claim of each figure as a machine-checkable predicate, with documented
// waivers where the simulator knowingly diverges. The verdicts are
// written to FIDELITY.json (-fidelity-out), a summary table is printed,
// and the command exits non-zero if any unwaived assertion fails. The
// fidelity report carries no timestamps, so it is byte-identical at any
// -parallel value.
//
// -baseline compares each experiment's measured events/sec against a
// committed baseline file and fails if throughput drops below a third
// of the recorded value — a coarse tripwire for order-of-magnitude
// regressions that tolerates machine-to-machine variance. The baseline
// also records deterministic scans-per-decision cost ratios derived
// from the perfstat counters (tracker×kind pairs per schedule call,
// profile entries per estimate, ...); those are guarded tightly, so a
// change that silently inflates a controller's per-decision work fails
// even when wall-clock throughput looks fine. -write-baseline
// regenerates the file from the current run.
//
// -scale-sweep switches to the controller-complexity study: the same
// weak-scaling scenario at geometrically spaced cluster sizes
// (-sweep-sizes, default 24,96,384), per-counter growth exponents
// fitted by log-log regression, and a PERF.json report (-perf-out)
// naming each controller's empirical O(n^k). The report section of
// PERF.json is byte-deterministic at any -parallel value; wall times
// live in a separate section excluded from determinism comparisons.
//
// -scale-up runs the same scenario at synthetic datacenter-scale
// operating points (-scale-up-sizes, default 2500,10000 PMs) and writes
// a SCALEUP.json report (-scale-up-out) with the same layout. It fails
// if any indexed controller (jt, drm, p1) grows faster than the
// O(n^1.2) acceptance ceiling across the points, and when -baseline is
// given it also guards each point's events/sec against the file's
// scale_up floors (-write-baseline records them, preserving the
// figure-experiment sections).
//
// -cpuprofile, -memprofile and -profile-dir wire the Go runtime
// profilers around whichever mode runs, for use with go tool pprof.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/chaossearch"
	"repro/internal/critpath"
	"repro/internal/experiments"
	"repro/internal/fidelity"
	"repro/internal/invariant"
	"repro/internal/perfstat"
	"repro/internal/policy"
	"repro/internal/policysearch"
	"repro/internal/progress"
	"repro/internal/report"
	"repro/internal/scalesweep"
	"repro/internal/trace"
)

// benchRecord is the machine-readable per-experiment performance report
// written by -json.
type benchRecord struct {
	Name         string  `json:"name"`
	Scale        float64 `json:"scale"`
	Parallel     int     `json:"parallel"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsFired  uint64  `json:"events_fired"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Metrics is the experiment's merged metrics-registry snapshot:
	// counters and histogram buckets summed across sweep points, gauges
	// taking the max. Deterministic at any -parallel value.
	Metrics trace.Snapshot `json:"metrics"`
	// CritPaths holds per-benchmark critical-path digests where the
	// experiment computes them (e.g. fig1a's native runs).
	CritPaths map[string]critpath.Summary `json:"critical_paths,omitempty"`
}

func writeBenchJSON(rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+rec.Name+".json", append(data, '\n'), 0o644)
}

// baselineFile is the committed throughput floor: events/sec per
// experiment, recorded at a known scale. The guard trips only below
// baseline/baselineTolerance, so routine machine variance passes.
type baselineFile struct {
	Scale        float64            `json:"scale"`
	EventsPerSec map[string]float64 `json:"events_per_sec"`
	// CostRatios records per-experiment scans-per-decision ratios from
	// the perfstat cost counters (e.g. tracker×kind pairs scanned per
	// schedule call). Unlike events/sec these are deterministic, so the
	// guard is tight: a change that silently inflates a ratio beyond
	// costRatioTolerance × baseline fails the comparison. Lower is
	// always fine — that is an algorithmic improvement.
	CostRatios map[string]map[string]float64 `json:"cost_ratios,omitempty"`
	// ScaleUp records events/sec per datacenter-scale operating point
	// ("pm2500", "pm10000") from the -scale-up suite, guarded with the
	// same baselineTolerance floor as the figure experiments. Written by
	// -scale-up -write-baseline.
	ScaleUp map[string]float64 `json:"scale_up,omitempty"`
	// PolicySearch records the policy-search sweep's events/sec, guarded
	// with the same baselineTolerance floor. Written by -policy-search
	// -write-baseline. Each write mode rewrites only its own sections
	// (see updateBaseline).
	PolicySearch float64 `json:"policy_search,omitempty"`
}

const baselineTolerance = 3.0

// readBaseline loads the baseline file at path.
func readBaseline(path string) (baselineFile, error) {
	var base baselineFile
	data, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("read baseline: %w", err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return base, nil
}

// updateBaseline rewrites the baseline file at path after edit has set
// the calling mode's own sections; every other section is carried over
// unchanged. A missing file starts empty.
func updateBaseline(path string, edit func(*baselineFile)) error {
	base, err := readBaseline(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	edit(&base)
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write baseline: %w", err)
	}
	return nil
}

// costRatioTolerance bounds scans-per-decision inflation. Ratios are
// deterministic, but legitimate workload reshaping (new assertions, new
// sweep points) moves them moderately; 1.5× catches complexity-class
// slips without tripping on tuning.
const costRatioTolerance = 1.5

// costRatioDefs derives the tracked scans-per-decision ratios from a
// metrics snapshot: numerator and denominator are perfstat counters.
var costRatioDefs = []struct {
	name string
	num  string
	den  string
}{
	{"jt.pairs_per_schedule", "perfstat.jt.pairs_scanned", "perfstat.jt.schedule_calls"},
	{"drm.nodes_per_sweep", "perfstat.drm.nodes_scanned", "perfstat.drm.sweeps"},
	{"p1.entries_per_estimate", "perfstat.p1.profile_entries_scanned", "perfstat.p1.estimates"},
	{"dfs.draws_per_block", "perfstat.dfs.placement_draws", "perfstat.dfs.blocks_placed"},
}

// costRatios extracts the defined ratios where the denominator engaged.
func costRatios(m trace.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range costRatioDefs {
		den := m.Counters[d.den]
		if den <= 0 {
			continue
		}
		out[d.name] = m.Counters[d.num] / den
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hybridmr-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hybridmr-bench", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "input-size scale factor (1 = paper sizes)")
	parallel := fs.Int("parallel", 0, "worker goroutines per experiment (0 = GOMAXPROCS)")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	ext := fs.Bool("ext", false, "include the extension and ablation experiments")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonOut := fs.Bool("json", false, "write BENCH_<id>.json perf records")
	check := fs.Bool("check", false, "run the paper-fidelity assertion suite (implies -ext)")
	fidelityOut := fs.String("fidelity-out", "FIDELITY.json", "fidelity report path (with -check)")
	baselinePath := fs.String("baseline", "", "compare events/sec against this baseline file")
	writeBaseline := fs.Bool("write-baseline", false, "write the -baseline file from this run instead of comparing")
	chaosSearch := fs.Bool("chaos-search", false, "run the chaos search (random correlated-fault schedules through the invariant checker) instead of the figure experiments")
	chaosBudget := fs.Int("chaos-budget", 200, "number of random schedules to try (with -chaos-search)")
	chaosSeed := fs.Int64("chaos-seed", 1, "search seed; fixes every generated schedule (with -chaos-search)")
	chaosOut := fs.String("chaos-out", "CHAOS.json", "chaos report path (with -chaos-search)")
	chaosReplay := fs.String("chaos-replay", "", "replay a minimized CHAOS.json repro instead of searching")
	chaosBreak := fs.Bool("chaos-break-recovery", false, "disable map re-execution under the search, to prove the harness catches a broken recovery path")
	scaleSweep := fs.Bool("scale-sweep", false, "run the controller-complexity scale sweep instead of the figure experiments")
	sweepSizes := fs.String("sweep-sizes", "", "comma-separated total-PM counts for -scale-sweep (default 24,96,384)")
	sweepSeed := fs.Int64("sweep-seed", 1, "base seed for -scale-sweep")
	perfOut := fs.String("perf-out", "PERF.json", "scale-sweep report path (with -scale-sweep)")
	policySearch := fs.Bool("policy-search", false, "sweep the policy registry for the JCT/energy/SLA Pareto frontier instead of the figure experiments")
	searchGrid := fs.String("search-grid", "smoke", "candidate grid for -policy-search: smoke, full or random")
	searchSamples := fs.Int("search-samples", 24, "random-grid size (with -search-grid random)")
	searchSeed := fs.Int64("search-seed", 11, "scenario seed for -policy-search; every candidate runs the same seed")
	searchOut := fs.String("search-out", "SEARCH.json", "policy-search report path (with -policy-search)")
	searchReport := fs.String("search-report", "", "also write a policy-search observatory HTML to this path (with -policy-search)")
	scaleUp := fs.Bool("scale-up", false, "run the datacenter-scale operating points instead of the figure experiments")
	scaleUpSizes := fs.String("scale-up-sizes", "", "comma-separated total-PM counts for -scale-up (default 2500,10000)")
	scaleUpOut := fs.String("scale-up-out", "SCALEUP.json", "scale-up report path (with -scale-up)")
	progressOn := fs.Bool("progress", false, "print a live wall-clock heartbeat (completed points, events/sec, ETA) to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	profileDir := fs.String("profile-dir", "", "write cpu.pprof and mem.pprof into this directory (overrides -cpuprofile/-memprofile)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := perfstat.StartProfiles(*cpuprofile, *memprofile, *profileDir)
	if err != nil {
		return err
	}
	profilesStopped := false
	stopProf := func() error {
		if profilesStopped {
			return nil
		}
		profilesStopped = true
		return stopProfiles()
	}
	defer stopProf()
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Extensions() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *writeBaseline && *baselinePath == "" {
		return fmt.Errorf("-write-baseline needs -baseline <path>")
	}
	experiments.Scale = *scale
	experiments.Parallelism = *parallel

	// The heartbeat prints to stderr from its own goroutine and reads
	// only atomic state, so it cannot disturb any deterministic output.
	var pr *progress.Reporter
	if *progressOn {
		pr = progress.Start(os.Stderr, "bench", 0, 0)
		defer pr.Stop()
	}

	if *chaosReplay != "" {
		if err := runChaosReplay(*chaosReplay, stdout); err != nil {
			return err
		}
		return stopProf()
	}
	if *chaosSearch {
		if err := runChaosSearch(*chaosSeed, *chaosBudget, *chaosBreak, *chaosOut, stdout); err != nil {
			return err
		}
		return stopProf()
	}
	if *scaleSweep {
		sizes, err := parseSizes("sweep-sizes", *sweepSizes)
		if err != nil {
			return err
		}
		if err := runScaleSweep(sizes, *sweepSeed, *perfOut, pr, stdout); err != nil {
			return err
		}
		return stopProf()
	}
	if *policySearch {
		if err := runPolicySearch(*searchGrid, *searchSamples, *searchSeed, *searchOut, *searchReport, *baselinePath, *writeBaseline, pr, stdout); err != nil {
			return err
		}
		return stopProf()
	}
	if *scaleUp {
		sizes, err := parseSizes("scale-up-sizes", *scaleUpSizes)
		if err != nil {
			return err
		}
		if sizes == nil {
			sizes = scalesweep.DefaultScaleUpSizes()
		}
		if err := runScaleUp(sizes, *sweepSeed, *scaleUpOut, *baselinePath, *writeBaseline, pr, stdout); err != nil {
			return err
		}
		return stopProf()
	}

	var selected []experiments.Experiment
	if *only == "" {
		selected = experiments.All()
		// The fidelity gate covers the extensions too: every registered
		// experiment must face its assertions.
		if *ext || *check {
			selected = append(selected, experiments.Extensions()...)
		}
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	report := &fidelity.Report{Scale: *scale}
	measured := make(map[string]float64, len(selected))
	ratios := make(map[string]map[string]float64, len(selected))
	pr.SetTotal(int64(len(selected)))
	for _, e := range selected {
		start := time.Now()
		outcome, err := e.Run()
		if err != nil {
			if *check {
				// The gate reports a broken experiment as a failure
				// rather than aborting the remaining figures.
				report.Add(fidelity.FigureResult{ID: e.ID, Error: err.Error()})
				fmt.Fprintf(stdout, "%s: ERROR: %v\n\n", e.ID, err)
				continue
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		wall := time.Since(start).Seconds()
		outcome.Fprint(stdout)
		fmt.Fprintf(stdout, "  (%s completed in %.1fs wall time)\n\n", e.ID, wall)
		if wall > 0 {
			measured[e.ID] = float64(outcome.EventsFired) / wall
		}
		if r := costRatios(outcome.Metrics); r != nil {
			ratios[e.ID] = r
		}
		if *jsonOut {
			// EventsFired comes from the experiment's own engine sinks,
			// not a process-global delta, so concurrent experiments (or
			// nested training simulations) never bleed into each other.
			rec := benchRecord{
				Name: e.ID, Scale: *scale, Parallel: experiments.Workers(),
				WallSeconds: wall, EventsFired: outcome.EventsFired,
				Metrics: outcome.Metrics, CritPaths: outcome.CritPaths,
			}
			if wall > 0 {
				rec.EventsPerSec = measured[e.ID]
			}
			if err := writeBenchJSON(rec); err != nil {
				return fmt.Errorf("%s: write bench json: %w", e.ID, err)
			}
		}
		if *check {
			fr := fidelity.Evaluate(e.ID, outcome, *scale)
			fr.WallSeconds = wall
			fr.EventsFired = outcome.EventsFired
			report.Add(fr)
		}
		pr.Add(1)
	}

	if *baselinePath != "" {
		order := make([]string, 0, len(selected))
		for _, e := range selected {
			order = append(order, e.ID)
		}
		if err := handleBaseline(*baselinePath, *writeBaseline, *scale, order, measured, ratios, stdout); err != nil {
			return err
		}
	}
	if *check {
		data, err := report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*fidelityOut, data, 0o644); err != nil {
			return fmt.Errorf("write fidelity report: %w", err)
		}
		report.Summary(stdout)
		if report.HasFailures() {
			return fmt.Errorf("fidelity: %d assertion(s) failed (see %s)", report.Failed, *fidelityOut)
		}
	}
	return stopProf()
}

// parseSizes parses the PM-count list given to the named flag
// (-sweep-sizes or -scale-up-sizes); empty means the mode's defaults.
func parseSizes(flagName, s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 2 {
			return nil, fmt.Errorf("bad -%s entry %q", flagName, part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// runScaleSweep runs the controller-complexity sweep and writes
// PERF.json. The report section of the file is byte-deterministic; the
// wall section is not, and determinism comparisons must strip it.
func runScaleSweep(sizes []int, seed int64, outPath string, pr *progress.Reporter, stdout io.Writer) error {
	if len(sizes) == 0 {
		sizes = scalesweep.DefaultSweepSizes()
	}
	pr.SetTotal(int64(len(sizes)))
	f, err := scalesweep.Run(scalesweep.Options{
		Sizes: sizes, Seed: seed,
		OnPointDone: func() { pr.Add(1) },
	})
	if err != nil {
		return err
	}
	data, err := f.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	fmt.Fprintf(stdout, "Controller cost growth over cluster sizes %v (seed %d):\n", f.Report.Sizes, seed)
	for _, c := range f.Report.Controllers {
		flag := ""
		if c.Superlinear {
			flag = "  SUPERLINEAR"
		}
		fmt.Fprintf(stdout, "  %-8s %-10s driven by %-30s%s\n", c.Name, c.Complexity, c.DrivenBy, flag)
	}
	for _, w := range f.Wall {
		fmt.Fprintf(stdout, "  size %4d ran in %.2fs wall time\n", w.Size, w.WallSeconds)
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	return nil
}

// runScaleUp runs the weak-scaling scenario at synthetic
// datacenter-scale operating points, writes the SCALEUP.json report
// (same byte-deterministic layout as PERF.json), enforces the indexed
// controllers' growth ceiling when more than one point ran, and guards
// each point's events/sec against the baseline's scale_up floors.
func runScaleUp(sizes []int, seed int64, outPath, baselinePath string, writeBaseline bool, pr *progress.Reporter, stdout io.Writer) error {
	pr.SetTotal(int64(len(sizes)))
	f, err := scalesweep.Run(scalesweep.Options{
		Sizes: sizes, Seed: seed,
		OnPointDone: func() { pr.Add(1) },
	})
	if err != nil {
		return err
	}
	data, err := f.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	fmt.Fprintf(stdout, "Scale-up suite over PM counts %v (seed %d):\n", f.Report.Sizes, seed)
	measured := make(map[string]float64, len(f.Wall))
	for i, w := range f.Wall {
		r := f.Report.Results[i]
		eps := 0.0
		if w.WallSeconds > 0 {
			eps = float64(r.EventsFired) / w.WallSeconds
		}
		measured[fmt.Sprintf("pm%d", w.Size)] = eps
		fmt.Fprintf(stdout, "  %5d PMs: %d trackers, %d jobs, %d events in %.2fs (%.0f events/sec)\n",
			r.Size, r.Trackers, r.Jobs, r.EventsFired, w.WallSeconds, eps)
	}
	if len(f.Report.Sizes) >= 2 {
		indexed := make(map[string]bool, len(scalesweep.IndexedControllers))
		for _, name := range scalesweep.IndexedControllers {
			indexed[name] = true
		}
		var busts []string
		for _, c := range f.Report.Controllers {
			if !indexed[c.Name] {
				continue
			}
			if c.MaxExponent > scalesweep.AcceptanceCeiling {
				busts = append(busts, fmt.Sprintf("%s grows %s via %s, ceiling O(n^%.1f)",
					c.Name, c.Complexity, c.DrivenBy, scalesweep.AcceptanceCeiling))
			} else {
				fmt.Fprintf(stdout, "  growth %-4s %s via %s (ceiling O(n^%.1f)) ok\n",
					c.Name, c.Complexity, c.DrivenBy, scalesweep.AcceptanceCeiling)
			}
		}
		if len(busts) > 0 {
			return fmt.Errorf("scale-up growth regression (indexed controller past the ceiling):\n  %s",
				strings.Join(busts, "\n  "))
		}
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	if baselinePath != "" {
		return handleScaleUpBaseline(baselinePath, writeBaseline, measured, stdout)
	}
	return nil
}

// handleScaleUpBaseline records or checks the per-point events/sec
// floors of the scale-up suite. Writing rewrites only the scale_up
// section; the scenario does not depend on -scale, so no scale
// consistency check applies here.
func handleScaleUpBaseline(path string, write bool, measured map[string]float64, stdout io.Writer) error {
	if write {
		if err := updateBaseline(path, func(b *baselineFile) { b.ScaleUp = measured }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote scale-up floors for %d operating point(s) to %s\n", len(measured), path)
		return nil
	}
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(measured))
	for k := range measured {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var regressions []string
	for _, k := range keys {
		got := measured[k]
		want, ok := base.ScaleUp[k]
		if !ok || want <= 0 {
			continue
		}
		floor := want / baselineTolerance
		if got < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f events/sec, floor %.0f (baseline %.0f)", k, got, floor, want))
		} else {
			fmt.Fprintf(stdout, "throughput %s: %.0f events/sec vs baseline %.0f (floor %.0f) ok\n", k, got, want, floor)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("scale-up throughput regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}

// runPolicySearch sweeps a candidate grid across the worker pool, writes
// the byte-deterministic SEARCH.json (whole-file deterministic — cmp the
// -parallel 1 and -parallel 8 outputs directly), prints the scored
// table, optionally renders a search observatory seeded with the
// winner's audit trail, and guards the sweep's events/sec against the
// baseline's policy_search floor.
func runPolicySearch(gridName string, samples int, seed int64, outPath, reportPath, baselinePath string, writeBaseline bool, pr *progress.Reporter, stdout io.Writer) error {
	var grid []policy.Spec
	switch gridName {
	case "smoke":
		grid = policysearch.SmokeGrid()
	case "full":
		grid = policysearch.FullGrid()
	case "random":
		grid = policysearch.RandomGrid(samples, seed)
	default:
		return fmt.Errorf("unknown -search-grid %q (smoke, full or random)", gridName)
	}
	pr.SetTotal(int64(len(grid)))
	start := time.Now()
	f, winnerLog, err := policysearch.Run(policysearch.Options{
		Grid: grid, Seed: seed,
		OnPointDone: func() { pr.Add(1) },
	})
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	data, err := f.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	rep := f.Report
	fmt.Fprintf(stdout, "Policy search over %d candidate(s) (%s grid, seed %d):\n", len(rep.Candidates), gridName, seed)
	var events int64
	for _, c := range rep.Candidates {
		events += c.EventsFired
		mark := " "
		if c.Pareto {
			mark = "*"
		}
		fmt.Fprintf(stdout, "  %s jct %7.1fs  energy %8.1f Wh  sla-viol %5.3f  %s\n",
			mark, c.Objectives.MeanJCTSec, c.Objectives.EnergyWh, c.Objectives.SLAViolationRate, c.Policy)
	}
	fmt.Fprintf(stdout, "frontier: %d point(s); * marks Pareto-optimal candidates\n", len(rep.Frontier))
	if rep.Winner != nil {
		fmt.Fprintf(stdout, "winner (min energy on frontier): %s\n", rep.Winner.Policy)
		fmt.Fprintf(stdout, "  %d audited decision(s) across %d (stage, action) pair(s)\n",
			rep.Winner.Decisions, len(rep.Winner.ByStage))
		if rep.Winner.FirstPlacement != "" {
			fmt.Fprintf(stdout, "  first placement: %s\n", rep.Winner.FirstPlacement)
		}
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)

	if reportPath != "" {
		points := make([]report.SearchPoint, 0, len(rep.Candidates))
		for _, c := range rep.Candidates {
			points = append(points, report.SearchPoint{
				Policy:           c.Policy,
				MeanJCTSec:       c.Objectives.MeanJCTSec,
				EnergyWh:         c.Objectives.EnergyWh,
				SLAViolationRate: c.Objectives.SLAViolationRate,
				Pareto:           c.Pareto,
				Winner:           rep.Winner != nil && c.Policy == rep.Winner.Policy,
			})
		}
		d := report.Data{Title: "policy search (" + gridName + " grid)", Seed: seed, Search: points}
		if winnerLog != nil {
			d.Audit = winnerLog.Records()
			d.AuditDropped = winnerLog.Dropped()
		}
		var buf strings.Builder
		if err := report.Write(&buf, d); err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, []byte(buf.String()), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", reportPath, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", reportPath)
	}

	eps := 0.0
	if wall > 0 {
		eps = float64(events) / wall
	}
	fmt.Fprintf(stdout, "search fired %d events in %.2fs wall time (%.0f events/sec)\n", events, wall, eps)
	if baselinePath != "" {
		return handlePolicySearchBaseline(baselinePath, writeBaseline, eps, stdout)
	}
	return nil
}

// handlePolicySearchBaseline records or checks the policy-search sweep's
// events/sec floor. Writing rewrites only the policy_search section.
func handlePolicySearchBaseline(path string, write bool, eps float64, stdout io.Writer) error {
	if write {
		if err := updateBaseline(path, func(b *baselineFile) { b.PolicySearch = eps }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote policy-search floor (%.0f events/sec) to %s\n", eps, path)
		return nil
	}
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	if base.PolicySearch <= 0 {
		return nil
	}
	floor := base.PolicySearch / baselineTolerance
	if eps < floor {
		return fmt.Errorf("policy-search throughput regression: %.0f events/sec, floor %.0f (baseline %.0f)",
			eps, floor, base.PolicySearch)
	}
	fmt.Fprintf(stdout, "throughput policy-search: %.0f events/sec vs baseline %.0f (floor %.0f) ok\n",
		eps, base.PolicySearch, floor)
	return nil
}

// runChaosSearch fuzzes random correlated-fault schedules through the
// runtime invariant checker, minimizes the first failure found, writes
// the byte-deterministic CHAOS.json report and fails on any violation.
func runChaosSearch(seed int64, budget int, breakRecovery bool, outPath string, stdout io.Writer) error {
	tpl := chaossearch.DefaultTemplate()
	tpl.BreakMapRecovery = breakRecovery
	rep, err := chaossearch.Search(tpl, seed, budget)
	if err != nil {
		return err
	}
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", outPath, err)
	}
	fmt.Fprintf(stdout, "chaos search: %d schedule(s) against template %s (seed %d)\n",
		budget, tpl.Name, seed)
	if rep.FailingIndex < 0 {
		fmt.Fprintf(stdout, "all invariants held; wrote %s\n", outPath)
		return nil
	}
	fmt.Fprintf(stdout, "trial %d violated invariants; minimized %d faults -> %d in %d run(s)\n",
		rep.FailingIndex, rep.OriginalFaults, len(rep.Schedule), rep.MinimizeRuns)
	printViolations(stdout, rep.Violations)
	fmt.Fprintf(stdout, "wrote repro to %s (replay with -chaos-replay %s)\n", outPath, outPath)
	return fmt.Errorf("chaos search found %d invariant violation(s)", len(rep.Violations))
}

// runChaosReplay re-runs a minimized CHAOS.json repro and reports what
// the invariant checker observes. Reproducing the recorded violation is
// still a failing exit: the repro exists to be fixed, not admired.
func runChaosReplay(path string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := chaossearch.Load(data)
	if err != nil {
		return err
	}
	vs, err := chaossearch.Replay(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d fault(s) from %s against template %s\n",
		len(rep.Schedule), path, rep.Template.Name)
	if len(vs) == 0 {
		fmt.Fprintln(stdout, "no invariant violations: the repro no longer fires (fixed?)")
		return nil
	}
	printViolations(stdout, vs)
	return fmt.Errorf("replay reproduced %d invariant violation(s)", len(vs))
}

// printViolations lists violations, truncated: the full set is in the
// JSON artifact, the console only needs the shape of the breach.
func printViolations(stdout io.Writer, vs []invariant.Violation) {
	const keep = 8
	for i, v := range vs {
		if i == keep {
			fmt.Fprintf(stdout, "  ... and %d more (see the JSON report)\n", len(vs)-keep)
			return
		}
		fmt.Fprintf(stdout, "  %s\n", v)
	}
}

// handleBaseline either records this run's throughput as the new
// baseline or compares against the committed one, failing on any
// experiment that ran more than baselineTolerance times slower. Writing
// rewrites only the scale, events_per_sec and cost_ratios sections.
func handleBaseline(path string, write bool, scale float64, order []string, measured map[string]float64, ratios map[string]map[string]float64, stdout io.Writer) error {
	if write {
		err := updateBaseline(path, func(b *baselineFile) {
			b.Scale, b.EventsPerSec, b.CostRatios = scale, measured, ratios
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote throughput baseline for %d experiment(s) to %s\n", len(measured), path)
		return nil
	}
	base, err := readBaseline(path)
	if err != nil {
		return err
	}
	if base.Scale != scale {
		return fmt.Errorf("baseline %s was recorded at scale %g, run at %g", path, base.Scale, scale)
	}
	var regressions []string
	for _, id := range order {
		got, ran := measured[id]
		want, ok := base.EventsPerSec[id]
		if !ran || !ok || want <= 0 {
			continue
		}
		floor := want / baselineTolerance
		if got < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f events/sec, floor %.0f (baseline %.0f)", id, got, floor, want))
		} else {
			fmt.Fprintf(stdout, "throughput %s: %.0f events/sec vs baseline %.0f (floor %.0f) ok\n", id, got, want, floor)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("throughput regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	var inflations []string
	for _, id := range order {
		got, ran := ratios[id]
		want, ok := base.CostRatios[id]
		if !ran || !ok {
			continue
		}
		for _, d := range costRatioDefs {
			g, gok := got[d.name]
			w, wok := want[d.name]
			if !gok || !wok || w <= 0 {
				continue
			}
			ceiling := w * costRatioTolerance
			if g > ceiling {
				inflations = append(inflations,
					fmt.Sprintf("%s %s: %.1f scans/decision, ceiling %.1f (baseline %.1f)", id, d.name, g, ceiling, w))
			}
		}
	}
	if len(inflations) > 0 {
		return fmt.Errorf("cost-counter inflation (scheduler doing more work per decision):\n  %s", strings.Join(inflations, "\n  "))
	}
	return nil
}
