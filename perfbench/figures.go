package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fidelity"
)

// figuresRun regenerates every paper figure plus the extension and
// ablation studies at paper scale and checks each against the fidelity
// suite. The experiments build their rigs internally with fixed seeds.
type figuresRun struct {
	exps  []experiments.Experiment
	known map[string]bool // "id: assertion" of fidelity failures recorded as expected
	p     *probe
}

// setupFigures builds what a figure run needs before its first
// simulated event: the experiment registry and the fidelity suite's
// checks.
func setupFigures(known []string, p *probe) *figuresRun {
	experiments.Scale = 1
	experiments.Parallelism = 1
	exps := append(experiments.All(), experiments.Extensions()...)
	_ = fidelity.Checks()
	f := &figuresRun{exps: exps, known: make(map[string]bool, len(known)), p: p}
	for _, k := range known {
		f.known[k] = true
	}
	return f
}

func (f *figuresRun) close() {}

// run executes every experiment in registry order. Each experiment run
// and each fidelity assertion is one operation; an assertion fails the
// operation only if its failure is not recorded as known.
func (f *figuresRun) run() (passResult, error) {
	res := passResult{counters: make(map[string]float64)}
	if f.p != nil {
		res.figureS = make(map[string]float64, len(f.exps))
	}
	var d digester
	for _, e := range f.exps {
		start := time.Now()
		out, err := e.Run()
		if res.figureS != nil {
			res.figureS[e.ID] = time.Since(start).Seconds()
		}
		res.ops.check(err == nil, "%s: %v", e.ID, err)
		if err != nil {
			d.add(e.ID, "error", err.Error())
			continue
		}
		res.events += out.EventsFired
		digestOutcome(&d, e.ID, out)
		for _, r := range fidelity.Evaluate(e.ID, out, experiments.Scale).Results {
			d.add(e.ID, r.Name, string(r.Status), r.Detail, r.Waiver)
			key := e.ID + ": " + r.Name
			if r.Status == fidelity.Fail {
				res.fidelityFailed = append(res.fidelityFailed, key+": "+r.Detail)
			}
			res.ops.check(r.Status != fidelity.Fail || f.known[key], "fidelity %s: %s", key, r.Detail)
		}
		for name, v := range out.Metrics.Counters {
			if c, ok := strings.CutPrefix(name, "perfstat."); ok {
				res.counters[c] += v
			}
		}
	}
	res.digest = d.sum()
	res.summary = fmt.Sprintf("%d experiments, %d operations, %d fidelity assertions failed, %d events",
		len(f.exps), res.ops.attempted, len(res.fidelityFailed), res.events)
	return res, nil
}

// digestOutcome adds every table cell, numeric value, note and scalar of
// an experiment's outcome.
func digestOutcome(d *digester, id string, out *experiments.Outcome) {
	t := out.Table
	d.add(id, t.ID, t.Title, strings.Join(t.Columns, "|"))
	for i, row := range t.Rows {
		d.add(id, "row", strings.Join(row, "|"))
		var vals []string
		for _, v := range t.Vals[i] {
			if math.IsNaN(v) {
				vals = append(vals, "-")
			} else {
				vals = append(vals, fmt.Sprint(v))
			}
		}
		d.add(id, "vals", strings.Join(vals, "|"))
	}
	for _, n := range out.Notes {
		d.add(id, "note", n)
	}
	names := make([]string, 0, len(out.Scalars))
	for name := range out.Scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.add(id, "scalar", name, out.Scalars[name])
	}
}
