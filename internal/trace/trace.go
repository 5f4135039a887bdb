// Package trace provides structured event tracing and a metrics registry
// for the simulation stack. Subsystems emit typed spans (task attempts,
// job phases, VM migrations, PM power states) and instant events onto
// named tracks — one track per PM, VM or TaskTracker — and publish
// counters, gauges and streaming histograms into a Registry. Exporters
// write the collected events as JSONL or as the Chrome trace_event format
// loadable in Perfetto / chrome://tracing.
//
// Two properties shape the design:
//
//   - Disabled tracing must be free. Every method is nil-safe: a nil
//     *Tracer, *Registry, *Counter, *Gauge or *Histogram accepts the full
//     API as a no-op, so instrumented code never branches and the hot
//     path of an untraced simulation pays only a nil check.
//
//   - Traces must be deterministic. Timestamps come exclusively from the
//     bound simulation clock (never the wall clock), events are stored in
//     emission order, and exporters serialize with stable field and key
//     ordering — two runs with the same seed produce byte-identical
//     files.
package trace

import "time"

// Clock supplies simulated time. *sim.Engine satisfies it.
type Clock interface {
	Now() time.Duration
}

// Arg is one key/value annotation on a span or instant event. Values are
// either strings or numbers; construct them with S and F.
type Arg struct {
	// Key names the annotation.
	Key string

	str   string
	num   float64
	isNum bool
}

// S builds a string-valued argument.
func S(key, value string) Arg { return Arg{Key: key, str: value} }

// F builds a numeric argument.
func F(key string, value float64) Arg { return Arg{Key: key, num: value, isNum: true} }

// event is one recorded trace entry.
type event struct {
	phase byte // 'X' complete span, 'i' instant
	start time.Duration
	dur   time.Duration
	track string
	cat   string
	name  string
	args  []Arg
}

// openSpan is a begun-but-unfinished span. Slots are reused through a
// free list; gen guards stale Span handles after reuse.
type openSpan struct {
	start time.Duration
	track string
	cat   string
	name  string
	args  []Arg
	gen   uint32
	live  bool
}

// Tracer collects spans and instant events against a simulation clock.
// The zero value is not usable; use New. A nil *Tracer is a valid no-op
// tracer. Tracers are not safe for concurrent use: the simulation stack
// is single-goroutine by construction.
type Tracer struct {
	clock  Clock
	events []event
	open   []openSpan
	free   []int
	// slab is the arena chunk recorded events' args are copied into.
	// A full slab is left in place (earlier events keep pointing into
	// it) and a fresh one started, so recorded args never move.
	slab []Arg
	// scratch holds one event's args while an exporter sorts them.
	scratch []Arg
}

// slabArgs is the capacity of one arena chunk.
const slabArgs = 4096

// record copies a and b, back to back, into the arena and returns the
// copy; nil when both are empty. The copy's capacity equals its length,
// so appending to it never writes into a neighbour's args.
func (t *Tracer) record(a, b []Arg) []Arg {
	n := len(a) + len(b)
	if n == 0 {
		return nil
	}
	if cap(t.slab)-len(t.slab) < n {
		t.slab = make([]Arg, 0, max(slabArgs, n))
	}
	l := len(t.slab)
	t.slab = append(append(t.slab, a...), b...)
	return t.slab[l : l+n : l+n]
}

// New returns an empty tracer. The clock may be nil initially (events
// stamp at zero) and bound later with SetClock — deployment helpers
// create the engine after the user creates the tracer.
func New(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// SetClock binds (or re-binds) the simulated time source.
func (t *Tracer) SetClock(clock Clock) {
	if t == nil {
		return
	}
	t.clock = clock
}

func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// Len returns the number of completed events recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// OpenSpans returns the number of begun-but-unfinished spans.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.open {
		if t.open[i].live {
			n++
		}
	}
	return n
}

// Instant records a zero-duration event on a track. The args are
// copied, so the caller may reuse its slice.
func (t *Tracer) Instant(track, category, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{
		phase: 'i',
		start: t.now(),
		track: track,
		cat:   category,
		name:  name,
		args:  t.record(args, nil),
	})
}

// Span is a handle to an in-progress span returned by Begin. The zero
// Span (and any Span from a nil tracer) is valid and End on it is a
// no-op, so callers can hold spans unconditionally.
type Span struct {
	t   *Tracer
	idx int
	gen uint32
}

// Begin opens a span on a track. End it with Span.End; spans still open
// when an exporter runs are emitted as running to the export instant.
// The args are copied, so the caller may reuse its slice.
func (t *Tracer) Begin(track, category, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	var idx int
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		idx = len(t.open)
		t.open = append(t.open, openSpan{})
	}
	slot := &t.open[idx]
	gen := slot.gen + 1
	*slot = openSpan{
		start: t.now(),
		track: track,
		cat:   category,
		name:  name,
		// The slot's buffer is reused, so the caller's args never escape.
		args: append(slot.args[:0], args...),
		gen:  gen,
		live: true,
	}
	return Span{t: t, idx: idx, gen: gen}
}

// End closes the span, recording a complete event whose duration runs
// from Begin to now. Extra args are appended to those given at Begin.
// Ending a zero Span, or ending twice, is a no-op.
func (s Span) End(args ...Arg) {
	if s.t == nil || s.idx >= len(s.t.open) {
		return
	}
	slot := &s.t.open[s.idx]
	if !slot.live || slot.gen != s.gen {
		return
	}
	now := s.t.now()
	s.t.events = append(s.t.events, event{
		phase: 'X',
		start: slot.start,
		dur:   now - slot.start,
		track: slot.track,
		cat:   slot.cat,
		name:  slot.name,
		args:  s.t.record(slot.args, args),
	})
	slot.live = false
	s.t.free = append(s.t.free, s.idx)
}

// Active reports whether the span is open (begun on a live tracer and
// not yet ended).
func (s Span) Active() bool {
	if s.t == nil || s.idx >= len(s.t.open) {
		return false
	}
	slot := &s.t.open[s.idx]
	return slot.live && slot.gen == s.gen
}

// eachEvent calls fn on every completed event in emission order, then
// on every still-open span rendered as a span ending at the export
// instant with a trailing state=running arg. Completed events are
// visited in place, not copied; fn must not retain ev itself.
func (t *Tracer) eachEvent(fn func(ev *event) error) error {
	for i := range t.events {
		if err := fn(&t.events[i]); err != nil {
			return err
		}
	}
	now := t.now()
	for i := range t.open {
		slot := &t.open[i]
		if !slot.live {
			continue
		}
		ev := event{
			phase: 'X',
			start: slot.start,
			dur:   now - slot.start,
			track: slot.track,
			cat:   slot.cat,
			name:  slot.name,
			args:  append(append(make([]Arg, 0, len(slot.args)+1), slot.args...), S("state", "running")),
		}
		if err := fn(&ev); err != nil {
			return err
		}
	}
	return nil
}

// snapshot returns completed events plus every still-open span rendered
// as by eachEvent, in deterministic order.
func (t *Tracer) snapshot() []event {
	out := make([]event, 0, len(t.events)+len(t.open))
	_ = t.eachEvent(func(ev *event) error {
		out = append(out, *ev)
		return nil
	})
	return out
}
