package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/jsonenc"
)

// appendArgs appends args as a JSON object with byte-sorted keys; a
// repeated key keeps its last value. That is how encoding/json writes
// the map[string]any the exporters' schema defines, so exports stay
// byte-stable. The sort runs on a scratch copy so recorded args are
// never reordered.
func (t *Tracer) appendArgs(dst []byte, args []Arg) ([]byte, error) {
	s := append(t.scratch[:0], args...)
	t.scratch = s
	slices.SortStableFunc(s, func(a, b Arg) int { return strings.Compare(a.Key, b.Key) })
	dst = append(dst, '{')
	for i := range s {
		if i+1 < len(s) && s[i+1].Key == s[i].Key {
			continue // a later value for the same key wins
		}
		if dst[len(dst)-1] != '{' {
			dst = append(dst, ',')
		}
		dst = jsonenc.String(dst, s[i].Key)
		dst = append(dst, ':')
		if !s[i].isNum {
			dst = jsonenc.String(dst, s[i].str)
			continue
		}
		var err error
		if dst, err = jsonenc.Float(dst, s[i].num); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendJSONL appends one event as a JSONL line: type, ts_us, dur_us
// (omitted when zero), track, cat, name and args (omitted when empty),
// with timestamps in simulated microseconds.
func (t *Tracer) appendJSONL(dst []byte, ev *event) ([]byte, error) {
	if ev.phase == 'i' {
		dst = append(dst, `{"type":"instant","ts_us":`...)
	} else {
		dst = append(dst, `{"type":"span","ts_us":`...)
	}
	dst = jsonenc.Int(dst, ev.start.Microseconds())
	if dur := ev.dur.Microseconds(); dur != 0 {
		dst = append(dst, `,"dur_us":`...)
		dst = jsonenc.Int(dst, dur)
	}
	dst = jsonenc.String(append(dst, `,"track":`...), ev.track)
	dst = jsonenc.String(append(dst, `,"cat":`...), ev.cat)
	dst = jsonenc.String(append(dst, `,"name":`...), ev.name)
	if len(ev.args) > 0 {
		var err error
		if dst, err = t.appendArgs(append(dst, `,"args":`...), ev.args); err != nil {
			return dst, err
		}
	}
	return append(dst, '}', '\n'), nil
}

// WriteJSONL writes every recorded event (plus still-open spans, closed
// at the export instant) as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var line []byte
	err := t.eachEvent(func(ev *event) error {
		var err error
		if line, err = t.appendJSONL(line[:0], ev); err != nil {
			return err
		}
		_, err = bw.Write(line)
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// appendChrome appends one event of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// name, cat (omitted when empty), ph, ts, dur (spans only), pid, tid, s
// (instants only, thread scope) and args (omitted when empty).
func (t *Tracer) appendChrome(dst []byte, ev *event, tid int) ([]byte, error) {
	dst = jsonenc.String(append(dst, `{"name":`...), ev.name)
	if ev.cat != "" {
		dst = jsonenc.String(append(dst, `,"cat":`...), ev.cat)
	}
	if ev.phase == 'X' {
		dst = append(dst, `,"ph":"X","ts":`...)
		dst = jsonenc.Int(dst, ev.start.Microseconds())
		dst = jsonenc.Int(append(dst, `,"dur":`...), ev.dur.Microseconds())
		dst = jsonenc.Int(append(dst, `,"pid":1,"tid":`...), int64(tid))
	} else {
		dst = append(dst, `,"ph":"i","ts":`...)
		dst = jsonenc.Int(dst, ev.start.Microseconds())
		dst = jsonenc.Int(append(dst, `,"pid":1,"tid":`...), int64(tid))
		dst = append(dst, `,"s":"t"`...)
	}
	if len(ev.args) > 0 {
		var err error
		if dst, err = t.appendArgs(append(dst, `,"args":`...), ev.args); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// WriteChromeTrace writes the events in Chrome trace_event JSON format.
// Perfetto and chrome://tracing load the file directly. Tracks are
// assigned thread IDs in order of first appearance and named via
// thread_name metadata, so the viewer shows one labelled row per track
// (PM, VM, TaskTracker, job). Simulated time maps to the trace's
// microsecond timebase.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}

	// Track registry in first-appearance order.
	tids := make(map[string]int)
	var tracks []string
	_ = t.eachEvent(func(ev *event) error {
		if _, ok := tids[ev.track]; !ok {
			tracks = append(tracks, ev.track)
			tids[ev.track] = len(tracks)
		}
		return nil
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	// Entries are separated by ",\n". The first track's metadata opens
	// the list, and any event comes after at least that.
	var b []byte
	for i, track := range tracks {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = jsonenc.Int(append(b, `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`...), int64(i+1))
		b = jsonenc.String(append(b, `,"args":{"name":`...), track)
		b = jsonenc.Int(append(b, `}},`+"\n"+`{"name":"thread_sort_index","ph":"M","ts":0,"pid":1,"tid":`...), int64(i+1))
		b = jsonenc.Int(append(b, `,"args":{"sort_index":`...), int64(i))
		if _, err := bw.Write(append(b, "}}"...)); err != nil {
			return err
		}
	}
	err := t.eachEvent(func(ev *event) error {
		var err error
		if b, err = t.appendChrome(append(b[:0], ",\n"...), ev, tids[ev.track]); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ExportFormat names a trace serialization.
type ExportFormat string

// Supported export formats.
const (
	FormatJSONL  ExportFormat = "jsonl"
	FormatChrome ExportFormat = "chrome"
)

// Write serializes the trace in the given format.
func (t *Tracer) Write(w io.Writer, format ExportFormat) error {
	switch format {
	case FormatJSONL:
		return t.WriteJSONL(w)
	case FormatChrome, "":
		return t.WriteChromeTrace(w)
	default:
		return fmt.Errorf("trace: unknown export format %q", format)
	}
}
