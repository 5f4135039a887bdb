package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"
)

// The encoding/json schema the exporters were first written against.
// WriteJSONL and WriteChromeTrace must produce exactly the bytes these
// reference encoders produce; the fuzz targets below hold them to it.

// argsMap converts an Arg list to a map for JSON encoding. encoding/json
// marshals map keys in sorted order; a repeated key keeps its last value.
func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		if a.isNum {
			m[a.Key] = a.num
		} else {
			m[a.Key] = a.str
		}
	}
	return m
}

type jsonlEvent struct {
	Type  string         `json:"type"` // "span" or "instant"
	TsUs  int64          `json:"ts_us"`
	DurUs int64          `json:"dur_us,omitempty"`
	Track string         `json:"track"`
	Cat   string         `json:"cat"`
	Name  string         `json:"name"`
	Args  map[string]any `json:"args,omitempty"`
}

func refWriteJSONL(t *Tracer, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.snapshot() {
		typ := "span"
		if ev.phase == 'i' {
			typ = "instant"
		}
		if err := enc.Encode(jsonlEvent{
			Type:  typ,
			TsUs:  ev.start.Microseconds(),
			DurUs: ev.dur.Microseconds(),
			Track: ev.track,
			Cat:   ev.cat,
			Name:  ev.name,
			Args:  argsMap(ev.args),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func refWriteChromeTrace(t *Tracer, w io.Writer) error {
	events := t.snapshot()
	tids := make(map[string]int)
	var tracks []string
	for _, ev := range events {
		if _, ok := tids[ev.track]; !ok {
			tids[ev.track] = len(tracks) + 1
			tracks = append(tracks, ev.track)
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		raw, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(raw)
		return err
	}
	for i, track := range tracks {
		if err := emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": track},
		}); err != nil {
			return err
		}
		if err := emit(chromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"sort_index": i},
		}); err != nil {
			return err
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.name,
			Cat:  ev.cat,
			Ts:   ev.start.Microseconds(),
			Pid:  1,
			Tid:  tids[ev.track],
			Args: argsMap(ev.args),
		}
		if ev.phase == 'X' {
			ce.Ph = "X"
			dur := ev.dur.Microseconds()
			ce.Dur = &dur
		} else {
			ce.Ph = "i"
			ce.Scope = "t"
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// fuzzTracer records one of each event shape from fuzzed fields: an
// instant whose first key repeats (string, then number), a span with
// Begin and End args including an empty key, an instant with no
// category and no args on a second track, a span with no args, and a
// span left open (exported with state=running, which k1 may shadow).
func fuzzTracer(track, cat, name, k1, v1, k2 string, x1, x2 float64, ts, dur int64) *Tracer {
	clk := &fakeClock{t: time.Duration(ts)}
	tr := New(clk)
	tr.Instant(track, cat, name, S(k1, v1), F(k1, x1), F(k2, x2))
	sp := tr.Begin(track, cat, name, S(k2, v1))
	clk.t += time.Duration(dur)
	sp.End(F(k1, x2), S("", name))
	tr.Instant(name, "", track)
	tr.Begin(k1, cat, v1, F(k2, x1), S("state", v1))
	bare := tr.Begin(track, "", name)
	clk.t += time.Duration(dur)
	bare.End()
	clk.t += time.Duration(dur)
	return tr
}

// checkSameBytes runs the new and reference writers on one tracer and
// fails unless both error (NaN or ±Inf in an arg) or both succeed with
// equal bytes.
func checkSameBytes(t *testing.T, tr *Tracer, got, want func(*Tracer, io.Writer) error) {
	t.Helper()
	var g, w bytes.Buffer
	gotErr, wantErr := got(tr, &g), want(tr, &w)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil {
			t.Fatalf("error mismatch: got %v, reference %v", gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("bytes differ from the encoding/json reference\n got %s\nwant %s", g.Bytes(), w.Bytes())
	}
}

func FuzzTraceJSONL(f *testing.F) {
	f.Add("pm-0", "task", "Sort-1/map-0", "job", "Sort-1", "slot_wait_sec", 1.5, 0.25, int64(time.Second), int64(3*time.Second))
	f.Fuzz(func(t *testing.T, track, cat, name, k1, v1, k2 string, x1, x2 float64, ts, dur int64) {
		checkSameBytes(t, fuzzTracer(track, cat, name, k1, v1, k2, x1, x2, ts, dur),
			(*Tracer).WriteJSONL, refWriteJSONL)
	})
}

func FuzzChromeTrace(f *testing.F) {
	f.Add("pm-0", "task", "Sort-1/map-0", "job", "Sort-1", "slot_wait_sec", 1.5, 0.25, int64(time.Second), int64(3*time.Second))
	f.Fuzz(func(t *testing.T, track, cat, name, k1, v1, k2 string, x1, x2 float64, ts, dur int64) {
		checkSameBytes(t, fuzzTracer(track, cat, name, k1, v1, k2, x1, x2, ts, dur),
			(*Tracer).WriteChromeTrace, refWriteChromeTrace)
	})
}

// busyTracer records n rounds of a task-like span with four args and an
// instant with two, the shape the simulator emits most.
func busyTracer(n int) *Tracer {
	clk := &fakeClock{}
	tr := New(clk)
	for i := 0; i < n; i++ {
		clk.t = time.Duration(i) * time.Millisecond
		sp := tr.Begin(fmt.Sprintf("vm-%d", i%16), "task", "Sort-1/map-3",
			S("job", "Sort-1"), S("kind", "map"), F("slot_wait_sec", float64(i)/7))
		tr.Instant("network", "dfs", "re-replicate", S("block", "blk-42"), F("survivors", 2))
		clk.t += 1500 * time.Microsecond
		sp.End(S("outcome", "done"))
	}
	tr.Begin("job:Sort-1", "job", "map-phase")
	return tr
}

// TestArenaRolloverKeepsArgs records enough args to fill several arena
// slabs and checks every event still holds exactly the args it was
// given, so none moved or was overwritten when a slab filled.
func TestArenaRolloverKeepsArgs(t *testing.T) {
	const rounds = 3 * slabArgs / 6 // six args a round
	tr := busyTracer(rounds)
	if tr.Len() != 2*rounds {
		t.Fatalf("Len = %d, want %d", tr.Len(), 2*rounds)
	}
	for i := 0; i < rounds; i++ {
		inst, span := tr.events[2*i], tr.events[2*i+1]
		want := []Arg{S("block", "blk-42"), F("survivors", 2)}
		if fmt.Sprint(inst.args) != fmt.Sprint(want) {
			t.Fatalf("round %d instant args %v, want %v", i, inst.args, want)
		}
		want = []Arg{S("job", "Sort-1"), S("kind", "map"), F("slot_wait_sec", float64(i)/7), S("outcome", "done")}
		if fmt.Sprint(span.args) != fmt.Sprint(want) {
			t.Fatalf("round %d span args %v, want %v", i, span.args, want)
		}
	}
}

// TestRecordedArgsAreCopies checks that a caller reusing its args slice
// after Instant, Begin or End does not change what was recorded.
func TestRecordedArgsAreCopies(t *testing.T) {
	tr := New(&fakeClock{})
	args := []Arg{S("k", "before")}
	tr.Instant("t", "c", "i", args...)
	sp := tr.Begin("t", "c", "s", args...)
	args[0] = S("k", "after")
	end := []Arg{F("n", 1)}
	sp.End(end...)
	end[0] = F("n", 2)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"instant","ts_us":0,"track":"t","cat":"c","name":"i","args":{"k":"before"}}` + "\n" +
		`{"type":"span","ts_us":0,"track":"t","cat":"c","name":"s","args":{"k":"before","n":1}}` + "\n"
	if buf.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestInstantAndSpanZeroAllocsWarm pins recording to zero allocations
// once the event list and the arena have room: args are copied into the
// arena, and the variadic slices at the call sites stay on the stack.
func TestInstantAndSpanZeroAllocsWarm(t *testing.T) {
	tr := New(&fakeClock{})
	tr.events = make([]event, 0, 1024)
	tr.Begin("t", "c", "warm", S("a", "b")).End(F("x", 1))
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Instant("pm-1", "power", "power-on", S("reason", "load"), F("watts", 180))
	}); allocs != 0 {
		t.Errorf("Instant allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin("vm-1", "task", "map-0", S("job", "Sort-1"), S("kind", "map"))
		sp.End(S("outcome", "done"))
	}); allocs != 0 {
		t.Errorf("Begin+End allocates %.1f/op, want 0", allocs)
	}
}

// TestWriteJSONLAllocsPerEvent holds the JSONL export to a small number
// of allocations per call (the buffered writer, the line buffer's
// growth, the open span's args), none per event.
func TestWriteJSONLAllocsPerEvent(t *testing.T) {
	tr := busyTracer(1000)
	if err := tr.WriteJSONL(io.Discard); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() { _ = tr.WriteJSONL(io.Discard) })
	if allocs > 16 {
		t.Errorf("WriteJSONL: %.0f allocs for %d events, want at most 16 per call", allocs, tr.Len())
	}
}

func BenchmarkTraceWriteJSONL(b *testing.B) {
	tr := busyTracer(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tr.Len()), "ns/event")
}

func BenchmarkTracerInstant(b *testing.B) {
	tr := New(&fakeClock{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tr.events) == 4096 {
			tr.events = tr.events[:0] // bound memory; keeps the list's capacity
		}
		tr.Instant("network", "dfs", "re-replicate", S("block", "blk-42"), F("survivors", 2))
	}
}
