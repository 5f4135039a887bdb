package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the goldens under ci/golden from this run")

func TestUnknownExperimentIDErrors(t *testing.T) {
	err := run([]string{"-only", "fig999"}, io.Discard)
	if err == nil {
		t.Fatal("run with an unknown -only id should error")
	}
	if !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "fig999") {
		t.Fatalf("error should name the unknown id: %v", err)
	}
}

func TestListDoesNotRunExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig1a", "fig11", "ext-faults", "abl-deferral"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestWriteBaselineRequiresPath(t *testing.T) {
	if err := run([]string{"-write-baseline"}, io.Discard); err == nil {
		t.Fatal("-write-baseline without -baseline should error")
	}
}

// TestFidelityReportDeterministic drives the real -check pipeline over
// two fast figures and requires the FIDELITY.json bytes to be identical
// at 1 and 8 workers — the determinism contract the CI gate depends on.
func TestFidelityReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "fid1.json"), filepath.Join(dir, "fid8.json")}
	for i, workers := range []string{"1", "8"} {
		err := run([]string{
			"-check", "-only", "fig5a,fig6c", "-scale", "0.1",
			"-parallel", workers, "-fidelity-out", paths[i],
		}, io.Discard)
		if err != nil {
			t.Fatalf("-check at %s workers: %v", workers, err)
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("FIDELITY.json differs between -parallel 1 and -parallel 8:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"fig5a"`)) || !bytes.Contains(a, []byte(`"fig6c"`)) {
		t.Fatalf("report missing selected figures:\n%s", a)
	}
	if !bytes.Contains(a, []byte(`"failed": 0`)) {
		t.Fatalf("fidelity checks failed at scale 0.1:\n%s", a)
	}
}

// TestFidelityGolden pins the scale-0.1 fidelity verdicts to the
// committed golden byte for byte; -update rewrites the golden from this
// run.
func TestFidelityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	golden := filepath.Join("..", "..", "ci", "golden", "FIDELITY-scale0.1.json")
	path := filepath.Join(t.TempDir(), "FIDELITY.json")
	if err := run([]string{"-check", "-scale", "0.1", "-parallel", "8", "-fidelity-out", path}, io.Discard); err != nil {
		t.Fatalf("-check -scale 0.1: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("FIDELITY.json differs from %s (rerun with -update only for a named behaviour change):\n%s", golden, got)
	}
}

// TestBaselineGuard exercises both directions of the throughput
// tripwire for each kind of ledger point: a figure recorded at a scale,
// a scale-sweep size and the policy search, whose scenarios ignore
// -scale.
func TestBaselineGuard(t *testing.T) {
	for _, tc := range []struct {
		point string
		scale float64
	}{{"figX", 0.1}, {"pm2500", 0}, {"policy-search", 0}} {
		t.Run(tc.point, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "base.json")
			check := func(eps float64) error {
				return handleBaseline(path, false, tc.scale, map[string]float64{tc.point: eps}, nil, io.Discard)
			}
			if err := handleBaseline(path, true, tc.scale, map[string]float64{tc.point: 900}, nil, io.Discard); err != nil {
				t.Fatalf("write baseline: %v", err)
			}
			// Same throughput passes; a 2x slowdown stays inside the 3x
			// tolerance.
			for _, eps := range []float64{900, 450} {
				if err := check(eps); err != nil {
					t.Fatalf("%.0f events/sec should pass: %v", eps, err)
				}
			}
			// A >3x slowdown trips the guard.
			if err := check(250); err == nil || !strings.Contains(err.Error(), "throughput regression") {
				t.Fatalf("4x slowdown should trip the guard, got %v", err)
			}
			// Points absent from the ledger are skipped, not failed.
			if err := handleBaseline(path, false, tc.scale, map[string]float64{"figY": 1}, nil, io.Discard); err != nil {
				t.Fatalf("unknown point should be skipped: %v", err)
			}
			// A scale mismatch refuses to compare apples to oranges.
			if err := handleBaseline(path, false, 1.0, map[string]float64{tc.point: 900}, nil, io.Discard); err == nil {
				t.Fatal("scale mismatch should error")
			}
		})
	}
}

// TestCostRatioGuard exercises the scans-per-decision tripwire: a
// ratio may shrink or wobble but must not inflate past its ceiling.
func TestCostRatioGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	measured := map[string]float64{"figX": 900}
	ratioName := costRatioDefs[0].name
	base := map[string]map[string]float64{"figX": {ratioName: 100}}

	if err := handleBaseline(path, true, 0.1, measured, base, io.Discard); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	// Equal and improved (lower) ratios pass; so does a wobble inside
	// the 1.5x ceiling.
	for _, ok := range []float64{100, 60, 149} {
		got := map[string]map[string]float64{"figX": {ratioName: ok}}
		if err := handleBaseline(path, false, 0.1, measured, got, io.Discard); err != nil {
			t.Fatalf("ratio %.0f should pass: %v", ok, err)
		}
	}
	// Inflation past the ceiling trips the guard.
	got := map[string]map[string]float64{"figX": {ratioName: 151}}
	err := handleBaseline(path, false, 0.1, measured, got, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cost-counter inflation") {
		t.Fatalf("inflated ratio should trip the guard, got %v", err)
	}
	// Ratios absent from the baseline (new experiments, counters that
	// did not engage) are skipped, not failed.
	missing := map[string]map[string]float64{"figY": {ratioName: 9999}}
	if err := handleBaseline(path, false, 0.1, measured, missing, io.Discard); err != nil {
		t.Fatalf("unknown ratio rows should be skipped: %v", err)
	}
}

// TestWriteBaselineKeepsOtherSections seeds a ledger with entries of
// every kind, runs each mode with -write-baseline in turn and requires
// the mode to rewrite exactly the points it measured, leaving every
// other entry byte for byte.
func TestWriteBaselineKeepsOtherSections(t *testing.T) {
	seed := baselineLedger{
		"fig1a":         {EventsPerSec: 123456.5, Scale: 0.1},
		"fig5a":         {EventsPerSec: 98765.25, Scale: 0.1, CostRatios: map[string]float64{costRatioDefs[0].name: 3.5}},
		"pm8":           {EventsPerSec: 4321.5},
		"pm2500":        {EventsPerSec: 54321.75},
		"policy-search": {EventsPerSec: 67890.125},
	}
	for _, tc := range []struct {
		mode  string
		args  []string
		owned []string
	}{
		{"figures", []string{"-only", "fig5a", "-scale", "0.1"}, []string{"fig5a"}},
		{"scale-sweep", []string{"-scale-sweep", "-sweep-sizes", "8,16"}, []string{"pm8", "pm16"}},
		{"policy-search", []string{"-policy-search"}, []string{"policy-search"}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "base.json")
			data, err := json.MarshalIndent(seed, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := ledgerEntries(t, path)
			args := append(tc.args, "-baseline", path, "-write-baseline",
				"-perf-out", filepath.Join(dir, "PERF.json"), "-search-out", filepath.Join(dir, "SEARCH.json"))
			if err := run(args, io.Discard); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			after := ledgerEntries(t, path)
			mine := map[string]bool{}
			for _, k := range tc.owned {
				mine[k] = true
				if after[k] == nil || bytes.Equal(before[k], after[k]) {
					t.Errorf("%s did not record its own point %q", tc.mode, k)
				}
			}
			for k, v := range before {
				if !mine[k] && !bytes.Equal(v, after[k]) {
					t.Errorf("%s changed entry %q: %s -> %s", tc.mode, k, v, after[k])
				}
			}
			for k := range after {
				if before[k] == nil && !mine[k] {
					t.Errorf("%s added an entry it did not measure: %q", tc.mode, k)
				}
			}
		})
	}
}

// ledgerEntries reads the ledger at path as raw per-point JSON.
func ledgerEntries(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCommittedBaselineParses keeps bench-baseline.json readable by the
// ledger schema, with a positive floor on every entry and a scale on
// exactly the figure points.
func TestCommittedBaselineParses(t *testing.T) {
	base, err := readBaseline(filepath.Join("..", "..", "bench-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for point, e := range base {
		if e.EventsPerSec <= 0 {
			t.Errorf("%s: no events/sec floor", point)
		}
		if _, fig := experiments.ByID(point); fig != (e.Scale > 0) {
			t.Errorf("%s: scale %g, want one only on figure experiments", point, e.Scale)
		}
	}
}

// TestParseSizesNamesItsFlag checks that a bad size list is reported
// against -sweep-sizes.
func TestParseSizesNamesItsFlag(t *testing.T) {
	for _, sizes := range []string{"4,x", "1"} {
		err := run([]string{"-scale-sweep", "-sweep-sizes", sizes}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "bad -sweep-sizes entry") {
			t.Errorf("-sweep-sizes %s: error %v does not name the flag", sizes, err)
		}
	}
}

// TestConflictingModesRejected: modes replace the figure experiments,
// so combining two of them, or one with a figure-only flag, must fail
// before anything runs and name both flags.
func TestConflictingModesRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		a, b string
	}{
		{[]string{"-scale-sweep", "-chaos-search"}, "-scale-sweep", "-chaos-search"},
		{[]string{"-policy-search", "-scale-sweep"}, "-scale-sweep", "-policy-search"},
		{[]string{"-chaos-search", "-chaos-replay", "x.json"}, "-chaos-search", "-chaos-replay"},
		{[]string{"-policy-search", "-chaos-replay", "x.json"}, "-policy-search", "-chaos-replay"},
		{[]string{"-check", "-scale-sweep"}, "-check", "-scale-sweep"},
		{[]string{"-json", "-policy-search"}, "-json", "-policy-search"},
		{[]string{"-only", "fig1a", "-chaos-search"}, "-only", "-chaos-search"},
		{[]string{"-ext", "-chaos-replay", "x.json"}, "-ext", "-chaos-replay"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%v: want an error", tc.args)
			continue
		}
		for _, name := range []string{tc.a, tc.b} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: error %q does not name %s", tc.args, err, name)
			}
		}
	}
}
