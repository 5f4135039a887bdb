package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runToTrace runs the quickstart scenario writing a trace, and returns
// the trace bytes.
func runToTrace(t *testing.T, name, format string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var out bytes.Buffer
	args := []string{"-trace", path, "-trace-format", format, "-seed", "7"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	return data
}

func TestQuickstartChromeTraceIsValidAndComplete(t *testing.T) {
	data := runToTrace(t, "trace.json", "chrome")

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	// The quickstart must exercise every traced subsystem.
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Cat != "" {
			cats[e.Cat] = true
		}
	}
	for _, want := range []string{"job", "task", "migration", "power", "placement", "dfs"} {
		if !cats[want] {
			t.Errorf("trace lacks any %q events (have %v)", want, cats)
		}
	}

	// Spans for specific expected activity.
	sawMigration, sawPowerOff, sawAttempt := false, false, false
	for _, e := range doc.TraceEvents {
		switch {
		case e.Cat == "migration" && e.Ph == "X" && e.Name == "migrate":
			sawMigration = true
		case e.Cat == "power" && e.Name == "powered-off":
			sawPowerOff = true
		case e.Cat == "task" && e.Ph == "X":
			sawAttempt = true
		}
	}
	if !sawMigration {
		t.Error("no completed VM-migration span")
	}
	if !sawPowerOff {
		t.Error("no PM powered-off span")
	}
	if !sawAttempt {
		t.Error("no task-attempt span")
	}
}

func TestQuickstartTraceIsDeterministic(t *testing.T) {
	for _, format := range []string{"chrome", "jsonl"} {
		a := runToTrace(t, "a-"+format, format)
		b := runToTrace(t, "b-"+format, format)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two same-seed runs produced different traces (%d vs %d bytes)",
				format, len(a), len(b))
		}
	}
}

func TestQuickstartJSONLLinesParse(t *testing.T) {
	data := runToTrace(t, "trace.jsonl", "jsonl")
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("jsonl trace is empty")
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		if _, ok := ev["type"]; !ok {
			t.Fatalf("line %d lacks a type field: %s", i+1, line)
		}
	}
}

func TestMetricsSummaryIncludesEngineThroughput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-metrics", "-seed", "7"}, &out); err != nil {
		t.Fatalf("run -metrics: %v", err)
	}
	for _, want := range []string{
		"metrics:",
		"engine.events_per_sec",
		"mapred.task.slot_wait_sec",
		"cluster.migration.downtime_sec",
		"dfs.reads.node_local",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("metrics summary lacks %q:\n%s", want, out.String())
		}
	}
}

func TestJobModeStillWorks(t *testing.T) {
	var out bytes.Buffer
	// Explicit -benchmark implies job mode even without -scenario.
	if err := run([]string{"-benchmark", "PiEst", "-pms", "4"}, &out); err != nil {
		t.Fatalf("job mode: %v", err)
	}
	if !strings.Contains(out.String(), "benchmark:    PiEst") {
		t.Errorf("job mode output missing benchmark line:\n%s", out.String())
	}
}

// TestMultiBenchmarkJobListIsDeterministic pins the fan-out contract:
// a comma-separated benchmark list prints the same report bytes at any
// worker count, in list order, matching the serial single-benchmark runs.
func TestMultiBenchmarkJobListIsDeterministic(t *testing.T) {
	render := func(parallel string) string {
		t.Helper()
		var out bytes.Buffer
		args := []string{"-benchmark", "PiEst,Wcount,Kmeans", "-pms", "4", "-parallel", parallel}
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return out.String()
	}
	serial := render("1")
	parallel := render("8")
	if serial != parallel {
		t.Errorf("job-list output differs between -parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	// Reports come back in list order, separated by blank lines, and each
	// matches what a standalone run of that benchmark prints.
	var want strings.Builder
	for i, bench := range []string{"PiEst", "Wcount", "Kmeans"} {
		if i > 0 {
			want.WriteString("\n")
		}
		var one bytes.Buffer
		if err := run([]string{"-benchmark", bench, "-pms", "4"}, &one); err != nil {
			t.Fatalf("single %s: %v", bench, err)
		}
		want.WriteString(one.String())
	}
	if serial != want.String() {
		t.Errorf("job-list output does not match concatenated single runs:\n--- list ---\n%s\n--- singles ---\n%s", serial, want.String())
	}
}

// TestMultiBenchmarkSuffixedOutputs pins the job-list observability
// contract: every benchmark in the list records through its own tracer,
// registry and decision log, file outputs gain a per-benchmark suffix,
// and each suffixed file matches the one a standalone run writes.
func TestMultiBenchmarkSuffixedOutputs(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-benchmark", "PiEst,Wcount", "-pms", "4", "-parallel", "2",
		"-trace", filepath.Join(dir, "t.json"), "-trace-format", "jsonl",
		"-audit", filepath.Join(dir, "a.jsonl"),
		"-report", filepath.Join(dir, "r.html"),
		"-metrics"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, out.String())
	}
	for _, bench := range []string{"PiEst", "Wcount"} {
		for _, name := range []string{"t-" + bench + ".json", "a-" + bench + ".jsonl", "r-" + bench + ".html"} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Errorf("missing or empty %s: %v", name, err)
			}
		}
	}
	if n := strings.Count(out.String(), "metrics:"); n != 2 {
		t.Errorf("want one metrics section per benchmark, got %d", n)
	}

	// The suffixed audit log is byte-identical to a standalone run's.
	single := t.TempDir()
	if err := run([]string{"-benchmark", "PiEst", "-pms", "4",
		"-audit", filepath.Join(single, "a.jsonl")}, &bytes.Buffer{}); err != nil {
		t.Fatalf("single PiEst: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(single, "a.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "a-PiEst.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("a-PiEst.jsonl from the list run differs from a standalone PiEst run")
	}
}

// TestAuditExportIsDeterministicAcrossWorkerCounts: the decision logs a
// benchmark list writes do not depend on -parallel.
func TestAuditExportIsDeterministicAcrossWorkerCounts(t *testing.T) {
	render := func(parallel string) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		args := []string{"-benchmark", "PiEst,Wcount,Kmeans", "-pms", "4",
			"-parallel", parallel, "-audit", filepath.Join(dir, "a.jsonl")}
		if err := run(args, &bytes.Buffer{}); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		files := map[string][]byte{}
		for _, bench := range []string{"PiEst", "Wcount", "Kmeans"} {
			data, err := os.ReadFile(filepath.Join(dir, "a-"+bench+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatalf("a-%s.jsonl is empty", bench)
			}
			files[bench] = data
		}
		return files
	}
	serial, parallel := render("1"), render("8")
	for bench, want := range serial {
		if !bytes.Equal(parallel[bench], want) {
			t.Errorf("%s audit log differs between -parallel 1 and 8", bench)
		}
	}
}

// TestQuickstartReportIsDeterministicAndComplete: two same-seed
// quickstart runs write byte-identical observatory reports, and the
// report renders every view with no external assets.
func TestQuickstartReportIsDeterministicAndComplete(t *testing.T) {
	render := func(name string) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		var out bytes.Buffer
		args := []string{"-seed", "7", "-report", path}
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v\noutput:\n%s", args, err, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := render("a.html")
	b := render("b.html")
	if !bytes.Equal(a, b) {
		t.Errorf("two same-seed reports differ (%d vs %d bytes)", len(a), len(b))
	}
	html := string(a)
	for _, want := range []string{
		"Utilization &amp; power timeline",
		"Placement &amp; migration swimlane",
		"Per-job critical paths",
		"Scheduler decision audit log",
		"<polyline", // recorded samples rendered
		"phase1",    // placement decisions present
		"makespan",  // at least one job profiled
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "src="} {
		if strings.Contains(html, banned) {
			t.Errorf("report references external asset %q", banned)
		}
	}
}

// TestQuickstartAuditJSONLParsesAndIsDeterministic: the exported
// decision log is valid JSONL with the pinned schema, identical across
// same-seed runs, and covers the subsystems the quickstart exercises.
func TestQuickstartAuditJSONLParsesAndIsDeterministic(t *testing.T) {
	render := func(name string) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		var out bytes.Buffer
		if err := run([]string{"-seed", "7", "-audit", path}, &out); err != nil {
			t.Fatalf("run -audit: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := render("a.jsonl")
	if b := render("b.jsonl"); !bytes.Equal(a, b) {
		t.Error("two same-seed audit exports differ")
	}
	subsystems := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	for i, line := range lines {
		var rec struct {
			Seq       uint64 `json:"seq"`
			Subsystem string `json:"subsystem"`
			Action    string `json:"action"`
			Decision  string `json:"decision"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i+1, err)
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("line %d has seq %d, want %d", i+1, rec.Seq, i+1)
		}
		subsystems[rec.Subsystem] = true
	}
	for _, want := range []string{"phase1", "mapred", "cluster"} {
		if !subsystems[want] {
			t.Errorf("audit log lacks any %q decisions (have %v)", want, subsystems)
		}
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "nope"}, &out); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestChaosScenarioCompletesAndReports(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "chaos", "-seed", "7", "-fault-seed", "99"}, &out); err != nil {
		t.Fatalf("chaos scenario: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"chaos run: seed 7, fault seed 99",
		"faults injected:",
		"pm-crash=",
		"0 under-replicated",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("chaos output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestChaosTraceIsDeterministic: two same-seed chaos runs (jobs plus
// fault injection) emit byte-identical JSONL traces. This is the chaos
// determinism gate; CI runs it in the race-enabled test job.
func TestChaosTraceIsDeterministic(t *testing.T) {
	runChaosTrace := func(name string) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		var out bytes.Buffer
		args := []string{"-scenario", "chaos", "-seed", "7", "-fault-seed", "99",
			"-trace", path, "-trace-format", "jsonl"}
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v\noutput:\n%s", args, err, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := runChaosTrace("a.jsonl")
	b := runChaosTrace("b.jsonl")
	if !bytes.Equal(a, b) {
		t.Errorf("two same-seed chaos runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}
}

func TestChaosBadProfileRejected(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "chaos", "-faults", "bogus=1"}, &out); err == nil {
		t.Fatal("invalid -faults profile accepted")
	}
}
