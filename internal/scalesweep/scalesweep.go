// Package scalesweep measures how each HybridMR controller's
// algorithmic cost grows with cluster size. It runs one fixed
// weak-scaling scenario at a geometric sequence of cluster sizes,
// collects the perfstat cost counters of every run, fits a power law
// counter ≈ a·n^k per counter via log-log regression, and names each
// controller's empirical complexity — flagging the superlinear ones as
// optimization targets.
//
// The counter section of the resulting report is byte-deterministic:
// every run is a seeded simulation whose cost counters are exact event
// tallies, so the same seed and sizes produce identical bytes at any
// sweep parallelism. Wall-clock times and span trees are reported too,
// but in a separate section that determinism comparisons exclude.
package scalesweep

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	hybridmr "repro"
	"repro/internal/experiments"
	"repro/internal/perfstat"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Schema identifies the PERF.json layout.
const Schema = "hybridmr.perf/v1"

// SuperlinearThreshold is the fitted exponent above which a counter's
// growth counts as superlinear. It sits above 1 by enough margin to
// absorb fit noise but below the ~1.2 an n·log n cost shows over a
// 16× size range.
const SuperlinearThreshold = 1.05

// AcceptanceCeiling is the growth exponent the indexed controllers must
// not exceed: the scheduler-state index work flattened jt, drm and p1
// from n^2.2/n^2.0/n^1.6 to at most ~n^1.2, and the sweep's regression
// guard fails any change that lets one of them climb back above this.
const AcceptanceCeiling = 1.2

// IndexedControllers names the controllers covered by AcceptanceCeiling.
var IndexedControllers = []string{"jt", "drm", "p1"}

// DefaultScaleUpSizes are the synthetic datacenter-scale operating
// points the -scale-up suite runs: 2.5k PMs (CI-speed smoke) and 10k
// PMs (the full datacenter point).
func DefaultScaleUpSizes() []int { return []int{2500, 10000} }

// DefaultSweepSizes are the controller-complexity sweep's geometric
// cluster sizes, used when Options.Sizes is empty.
func DefaultSweepSizes() []int { return []int{24, 96, 384} }

// Options parameterizes a sweep.
type Options struct {
	// Sizes are the total PM counts to run, smallest first. Each size n
	// builds a hybrid cluster of n/2 native PMs and n/2 virtual hosts
	// with 2 VMs each (the paper's layout ratio). Default {24, 96, 384}.
	Sizes []int
	// Seed fixes all randomized behaviour across the whole sweep.
	Seed int64
	// Waves is the number of job-arrival waves (default 5).
	Waves int
	// OnPointDone, when non-nil, is called once as each size finishes —
	// a progress hook for live heartbeats. Sizes fan across worker
	// goroutines, so the callback may run concurrently; it must not
	// touch the deterministic results.
	OnPointDone func()
}

func (o Options) withDefaults() Options {
	if len(o.Sizes) == 0 {
		o.Sizes = DefaultSweepSizes()
	}
	if o.Waves <= 0 {
		o.Waves = 5
	}
	return o
}

// SizeResult is one cluster size's deterministic outcome.
type SizeResult struct {
	// Size is the total PM count.
	Size int `json:"size"`
	// Trackers is the number of TaskTrackers across both partitions.
	Trackers int `json:"trackers"`
	// Jobs is how many jobs the scenario submitted (all completed).
	Jobs int `json:"jobs"`
	// EventsFired counts the main engine's fired events.
	EventsFired int64 `json:"events_fired"`
	// Counters is the perfstat cost-counter snapshot of the run.
	Counters map[string]int64 `json:"counters"`
}

// Exponent is one counter's fitted power law over the sweep.
type Exponent struct {
	// Counter is the perfstat counter name.
	Counter string `json:"counter"`
	// Exponent is the fitted k in counter ≈ a·n^k.
	Exponent float64 `json:"exponent"`
	// R2 is the goodness of the log-log fit.
	R2 float64 `json:"r2"`
	// Superlinear is Exponent >= SuperlinearThreshold.
	Superlinear bool `json:"superlinear"`
}

// Controller summarizes a subsystem: its worst-growing counter decides
// its empirical complexity.
type Controller struct {
	// Name is the subsystem prefix (drm, p1, jt, dfs, engine, ips, fault).
	Name string `json:"name"`
	// MaxExponent is the largest fitted exponent among its counters.
	MaxExponent float64 `json:"max_exponent"`
	// DrivenBy is the counter with that exponent.
	DrivenBy string `json:"driven_by"`
	// Complexity renders the verdict, e.g. "O(n^1.97)".
	Complexity string `json:"complexity"`
	// Superlinear flags the controller as an optimization target.
	Superlinear bool `json:"superlinear"`
}

// Report is the deterministic section of PERF.json.
type Report struct {
	Seed        int64        `json:"seed"`
	Sizes       []int        `json:"sizes"`
	Waves       int          `json:"waves"`
	Results     []SizeResult `json:"results"`
	Exponents   []Exponent   `json:"exponents"`
	Controllers []Controller `json:"controllers"`
}

// WallResult is one size's nondeterministic timing, reported for humans
// and excluded from determinism comparisons.
type WallResult struct {
	Size        int                     `json:"size"`
	WallSeconds float64                 `json:"wall_seconds"`
	Spans       []perfstat.SpanSnapshot `json:"spans"`
}

// File is the full PERF.json document: the byte-deterministic report
// plus the wall-time section.
type File struct {
	Schema string       `json:"schema"`
	Report Report       `json:"report"`
	Wall   []WallResult `json:"wall"`
}

// JSON renders the document with stable formatting.
func (f File) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Run executes the sweep, fanning sizes across experiments.Workers()
// goroutines. Each size is an independent seeded simulation, so the
// report section is identical at any worker count.
func Run(opts Options) (File, error) {
	opts = opts.withDefaults()
	type point struct {
		res  SizeResult
		wall WallResult
	}
	points, err := experiments.Map(len(opts.Sizes), func(i int) (point, error) {
		res, wall, err := runSize(opts.Sizes[i], opts)
		return point{res, wall}, err
	})
	if err != nil {
		return File{}, err
	}
	rep := Report{Seed: opts.Seed, Sizes: opts.Sizes, Waves: opts.Waves}
	var walls []WallResult
	for _, p := range points {
		rep.Results = append(rep.Results, p.res)
		walls = append(walls, p.wall)
	}
	rep.Exponents = FitExponents(rep.Results)
	rep.Controllers = ClassifyControllers(rep.Exponents)
	return File{Schema: Schema, Report: rep, Wall: walls}, nil
}

// RunPoint runs the sweep's weak-scaling scenario at a single cluster
// size and returns its deterministic result and wall timing — the
// single-operating-point entry used by the scale-up suite and the sim
// CLI's scaleup scenario.
func RunPoint(size int, opts Options) (SizeResult, WallResult, error) {
	return runSize(size, opts.withDefaults())
}

// runSize runs the weak-scaling scenario at one cluster size: waves of
// Sort jobs sized so concurrency grows with the cluster, alternating
// generous-deadline jobs (placed virtual, keeping the DRM busy) with
// no-deadline jobs (overhead-mode placement, exercising both estimate
// paths), with inter-wave gaps so completed runs grow the Phase I
// profile database before the next wave's estimates scan it.
func runSize(size int, opts Options) (SizeResult, WallResult, error) {
	if size < 2 {
		return SizeResult{}, WallResult{}, fmt.Errorf("scalesweep: size %d too small", size)
	}
	start := time.Now()
	perf := perfstat.New()
	hc, err := hybridmr.NewHybridCluster(hybridmr.ClusterSpec{
		NativePMs:      size / 2,
		VirtualHostPMs: (size + 1) / 2,
		VMsPerHost:     2,
		Seed:           opts.Seed + int64(size),
		Perf:           perf,
	})
	if err != nil {
		return SizeResult{}, WallResult{}, err
	}
	defer hc.Close()

	spec := workload.Sort().WithInputMB(192)
	spec.Reduces = 2
	waveSize := size / 12
	if waveSize < 2 {
		waveSize = 2
	}
	jobs := 0
	done := 0
	for w := 0; w < opts.Waves; w++ {
		for j := 0; j < waveSize; j++ {
			deadline := time.Duration(0)
			if j%2 == 0 {
				deadline = 2 * time.Hour
			}
			if _, _, err := hc.SubmitJob(spec, deadline, func(*hybridmr.Job) { done++ }); err != nil {
				return SizeResult{}, WallResult{}, fmt.Errorf("scalesweep: size %d wave %d: %w", size, w, err)
			}
			jobs++
		}
		hc.RunFor(2 * time.Minute)
	}
	hc.RunUntilIdle()
	if done != jobs {
		return SizeResult{}, WallResult{}, fmt.Errorf("scalesweep: size %d: %d of %d jobs completed", size, done, jobs)
	}

	trackers := 0
	if hc.NativeJT != nil {
		trackers += hc.NativeJT.TrackerCount()
	}
	if hc.VirtualJT != nil {
		trackers += hc.VirtualJT.TrackerCount()
	}
	sn := perf.Snapshot()
	res := SizeResult{
		Size:        size,
		Trackers:    trackers,
		Jobs:        jobs,
		EventsFired: perf.C.EngineEventsFired,
		Counters:    sn.Counters,
	}
	wall := WallResult{
		Size:        size,
		WallSeconds: time.Since(start).Seconds(),
		Spans:       sn.Spans,
	}
	if opts.OnPointDone != nil {
		opts.OnPointDone()
	}
	return res, wall, nil
}

// FitExponents fits counter ≈ a·n^k per counter across the sweep's
// sizes via linear regression in log-log space. Counters that are zero
// at any size are skipped (no log, and a cost that does not engage at
// every size has no meaningful growth law).
func FitExponents(results []SizeResult) []Exponent {
	if len(results) < 2 {
		return nil
	}
	names := make([]string, 0, len(results[0].Counters))
	for name := range results[0].Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Exponent
	for _, name := range names {
		xs := make([]float64, 0, len(results))
		ys := make([]float64, 0, len(results))
		ok := true
		for _, r := range results {
			v := r.Counters[name]
			if v <= 0 {
				ok = false
				break
			}
			xs = append(xs, math.Log(float64(r.Size)))
			ys = append(ys, math.Log(float64(v)))
		}
		if !ok {
			continue
		}
		fit, err := stats.FitLinear(xs, ys)
		if err != nil {
			continue
		}
		out = append(out, Exponent{
			Counter:     name,
			Exponent:    round3(fit.Slope),
			R2:          round3(fit.R2),
			Superlinear: round3(fit.Slope) >= SuperlinearThreshold,
		})
	}
	return out
}

// ClassifyControllers groups exponents by subsystem prefix and names
// each controller's empirical complexity after its worst counter.
func ClassifyControllers(exps []Exponent) []Controller {
	best := make(map[string]Exponent)
	for _, e := range exps {
		prefix := e.Counter
		if i := strings.IndexByte(prefix, '.'); i >= 0 {
			prefix = prefix[:i]
		}
		if cur, ok := best[prefix]; !ok || e.Exponent > cur.Exponent {
			best[prefix] = e
		}
	}
	names := make([]string, 0, len(best))
	for name := range best {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Controller, 0, len(names))
	for _, name := range names {
		e := best[name]
		out = append(out, Controller{
			Name:        name,
			MaxExponent: e.Exponent,
			DrivenBy:    e.Counter,
			Complexity:  fmt.Sprintf("O(n^%.2f)", e.Exponent),
			Superlinear: e.Superlinear,
		})
	}
	return out
}

func round3(v float64) float64 {
	return math.Round(v*1000) / 1000
}
