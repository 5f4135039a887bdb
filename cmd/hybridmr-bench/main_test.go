package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestBaselineGuard exercises both directions of the throughput
// tripwire against a synthetic baseline file.
func TestBaselineGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	measured := map[string]float64{"figX": 900}
	order := []string{"figX"}

	if err := handleBaseline(path, true, 0.1, order, measured, nil, io.Discard); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	// Same throughput: passes.
	if err := handleBaseline(path, false, 0.1, order, measured, nil, io.Discard); err != nil {
		t.Fatalf("equal throughput should pass: %v", err)
	}
	// A 2x slowdown stays inside the 3x tolerance.
	if err := handleBaseline(path, false, 0.1, order, map[string]float64{"figX": 450}, nil, io.Discard); err != nil {
		t.Fatalf("2x slowdown should pass: %v", err)
	}
	// A >3x slowdown trips the guard.
	err := handleBaseline(path, false, 0.1, order, map[string]float64{"figX": 250}, nil, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "throughput regression") {
		t.Fatalf("4x slowdown should trip the guard, got %v", err)
	}
	// Experiments absent from the baseline are skipped, not failed.
	if err := handleBaseline(path, false, 0.1, []string{"figY"}, map[string]float64{"figY": 1}, nil, io.Discard); err != nil {
		t.Fatalf("unknown experiment should be skipped: %v", err)
	}
	// A scale mismatch refuses to compare apples to oranges.
	if err := handleBaseline(path, false, 1.0, order, measured, nil, io.Discard); err == nil {
		t.Fatal("scale mismatch should error")
	}
}

// TestCostRatioGuard exercises the scans-per-decision tripwire: a
// ratio may shrink or wobble but must not inflate past its ceiling.
func TestCostRatioGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	measured := map[string]float64{"figX": 900}
	order := []string{"figX"}
	ratioName := costRatioDefs[0].name
	base := map[string]map[string]float64{"figX": {ratioName: 100}}

	if err := handleBaseline(path, true, 0.1, order, measured, base, io.Discard); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	// Equal and improved (lower) ratios pass; so does a wobble inside
	// the 1.5x ceiling.
	for _, ok := range []float64{100, 60, 149} {
		got := map[string]map[string]float64{"figX": {ratioName: ok}}
		if err := handleBaseline(path, false, 0.1, order, measured, got, io.Discard); err != nil {
			t.Fatalf("ratio %.0f should pass: %v", ok, err)
		}
	}
	// Inflation past the ceiling trips the guard.
	got := map[string]map[string]float64{"figX": {ratioName: 151}}
	err := handleBaseline(path, false, 0.1, order, measured, got, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cost-counter inflation") {
		t.Fatalf("inflated ratio should trip the guard, got %v", err)
	}
	// Ratios absent from the baseline (new experiments, counters that
	// did not engage) are skipped, not failed.
	missing := map[string]map[string]float64{"figY": {ratioName: 9999}}
	if err := handleBaseline(path, false, 0.1, order, measured, missing, io.Discard); err != nil {
		t.Fatalf("unknown ratio rows should be skipped: %v", err)
	}
}

// TestWriteBaselineKeepsOtherSections seeds a baseline file with every
// section, runs each -write-baseline path in turn and requires every
// section that path does not own to survive byte for byte.
func TestWriteBaselineKeepsOtherSections(t *testing.T) {
	seed := baselineFile{
		Scale:        0.1,
		EventsPerSec: map[string]float64{"fig1a": 123456.5, "fig5a": 98765.25},
		CostRatios:   map[string]map[string]float64{"fig5a": {costRatioDefs[0].name: 3.5}},
		ScaleUp:      map[string]float64{"pm2500": 54321.75},
		PolicySearch: 67890.125,
	}
	owned := map[string][]string{
		"figures":       {"scale", "events_per_sec", "cost_ratios"},
		"scale-up":      {"scale_up"},
		"policy-search": {"policy_search"},
	}
	write := map[string]func(path string) error{
		"figures": func(path string) error {
			return handleBaseline(path, true, 0.25, []string{"fig2a"},
				map[string]float64{"fig2a": 1}, map[string]map[string]float64{"fig2a": {costRatioDefs[1].name: 2}}, io.Discard)
		},
		"scale-up": func(path string) error {
			return handleScaleUpBaseline(path, true, map[string]float64{"pm10000": 2}, io.Discard)
		},
		"policy-search": func(path string) error {
			return handlePolicySearchBaseline(path, true, 3, io.Discard)
		},
	}
	sections := func(t *testing.T, path string) map[string]json.RawMessage {
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
	for mode, fn := range write {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "base.json")
			data, err := json.MarshalIndent(seed, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := sections(t, path)
			if len(before) != 5 {
				t.Fatalf("seeded %d sections, want 5", len(before))
			}
			if err := fn(path); err != nil {
				t.Fatalf("write: %v", err)
			}
			after := sections(t, path)
			mine := map[string]bool{}
			for _, k := range owned[mode] {
				mine[k] = true
				if bytes.Equal(before[k], after[k]) {
					t.Errorf("%s did not rewrite its own section %q", mode, k)
				}
			}
			for k, v := range before {
				if !mine[k] && !bytes.Equal(v, after[k]) {
					t.Errorf("%s changed section %q: %s -> %s", mode, k, v, after[k])
				}
			}
		})
	}
}

// TestParseSizesNamesItsFlag checks that a bad size list is reported
// against the flag it came from.
func TestParseSizesNamesItsFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale-sweep", "-sweep-sizes", "4,x"}, "-sweep-sizes"},
		{[]string{"-scale-up", "-scale-up-sizes", "4,x"}, "-scale-up-sizes"},
		{[]string{"-scale-up", "-scale-up-sizes", "1"}, "-scale-up-sizes"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil {
			t.Errorf("%v: want an error", tc.args)
			continue
		}
		want := "bad " + tc.flag + " entry"
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%v: error %q does not contain %q", tc.args, err, want)
		}
	}
}
