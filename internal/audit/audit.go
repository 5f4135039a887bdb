// Package audit records scheduler decisions as structured, sim-clock
// stamped records: which candidates were considered, how they scored,
// and why the winner won (or why nothing was done). It is the
// explainability companion to package trace — spans say *what*
// happened, audit records say *why*.
//
// Like trace.Tracer, a nil *Log accepts the full API as a no-op, so
// subsystems hold a *Log and call it unconditionally. Recording never
// schedules events, never reads wall clocks, and never perturbs the
// simulation: a run with auditing enabled is byte-identical to one
// without.
//
// The log is a ring buffer: once capacity is reached the oldest
// records are dropped (Dropped reports how many) so long simulations
// cannot grow without bound. Records export as JSONL with a fixed
// field order, making same-seed exports byte-identical.
package audit

import (
	"bufio"
	"io"
	"time"

	"repro/internal/jsonenc"
)

// DefaultCap is the ring-buffer capacity used when New is given a
// non-positive capacity.
const DefaultCap = 16384

// Clock is anything that can report the current simulated time.
// *sim.Engine satisfies it.
type Clock interface {
	Now() time.Duration
}

// Candidate is one option the scheduler weighed while making a
// decision. Score semantics are decision-specific (estimated JCT
// seconds for placement, benefit for DRM grants, progress rate for
// speculation) and stated in Note.
type Candidate struct {
	Name   string
	Score  float64
	Chosen bool
	Note   string
}

// Record is one audited decision.
type Record struct {
	Seq        uint64        // 1-based, monotonic, survives ring drops
	At         time.Duration // simulated time of the decision
	Subsystem  string        // "phase1", "drm", "ips", "mapred", "cluster", "fault"
	Action     string        // e.g. "place", "assign", "speculate", "migrate-start"
	Subject    string        // what the decision is about (job, task, VM, tracker)
	Decision   string        // what was decided ("native", tracker name, "none", ...)
	Reason     string        // why, in one human-readable clause
	Candidates []Candidate   // options weighed, if any
}

// Log is a bounded, deterministic decision log. It is not safe for
// concurrent use; like the rest of the simulation it belongs to a
// single engine goroutine.
type Log struct {
	clock Clock
	cap   int
	seq   uint64
	buf   []Record
}

// New returns a Log holding at most capacity records (DefaultCap if
// capacity <= 0). The clock is installed later via SetClock, mirroring
// how tracers are wired.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Log{cap: capacity}
}

// SetClock installs the time source used to stamp records.
func (l *Log) SetClock(c Clock) {
	if l == nil {
		return
	}
	l.clock = c
}

// Add appends one decision record. Candidates are retained as given;
// callers should order them deterministically (e.g. by score, ties by
// name) since record bytes feed byte-compared exports.
func (l *Log) Add(subsystem, action, subject, decision, reason string, candidates ...Candidate) {
	if l == nil {
		return
	}
	r := Record{
		Subsystem:  subsystem,
		Action:     action,
		Subject:    subject,
		Decision:   decision,
		Reason:     reason,
		Candidates: candidates,
	}
	if l.clock != nil {
		r.At = l.clock.Now()
	}
	r.Seq = l.seq + 1
	l.seq++
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, r)
		return
	}
	l.buf[int((r.Seq-1)%uint64(l.cap))] = r
}

// Len reports how many records are currently retained.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.buf)
}

// Dropped reports how many records the ring has discarded.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.seq - uint64(len(l.buf))
}

// Records returns the retained records oldest-first. The slice is a
// copy; mutating it does not affect the log.
func (l *Log) Records() []Record {
	if l == nil || len(l.buf) == 0 {
		return nil
	}
	out := make([]Record, 0, len(l.buf))
	if l.seq <= uint64(l.cap) {
		return append(out, l.buf...)
	}
	start := int(l.seq % uint64(l.cap))
	out = append(out, l.buf[start:]...)
	return append(out, l.buf[:start]...)
}

// Filter returns the retained records matching pred, oldest-first.
func (l *Log) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, r := range l.Records() {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// appendRecord appends r as one JSONL line. The field order is fixed
// (seq, ts_us, subsystem, action, subject, decision, reason,
// candidates) and empty reason, candidates, chosen and note fields are
// omitted, so exports are byte-stable.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	dst = jsonenc.Uint(append(dst, `{"seq":`...), r.Seq)
	dst = jsonenc.Int(append(dst, `,"ts_us":`...), r.At.Microseconds())
	dst = jsonenc.String(append(dst, `,"subsystem":`...), r.Subsystem)
	dst = jsonenc.String(append(dst, `,"action":`...), r.Action)
	dst = jsonenc.String(append(dst, `,"subject":`...), r.Subject)
	dst = jsonenc.String(append(dst, `,"decision":`...), r.Decision)
	if r.Reason != "" {
		dst = jsonenc.String(append(dst, `,"reason":`...), r.Reason)
	}
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if i == 0 {
			dst = append(dst, `,"candidates":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = jsonenc.String(append(dst, `{"name":`...), c.Name)
		var err error
		if dst, err = jsonenc.Float(append(dst, `,"score":`...), c.Score); err != nil {
			return dst, err
		}
		if c.Chosen {
			dst = append(dst, `,"chosen":true`...)
		}
		if c.Note != "" {
			dst = jsonenc.String(append(dst, `,"note":`...), c.Note)
		}
		dst = append(dst, '}')
	}
	if len(r.Candidates) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// WriteJSONL writes the retained records as one JSON object per line,
// oldest first. Timestamps are integer microseconds of simulated time
// (ts_us), matching the trace JSONL convention.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil || len(l.buf) == 0 {
		return nil
	}
	// Walk the ring in place, oldest first: once it has wrapped, the
	// oldest record sits where the next one will be written.
	start := 0
	if l.seq > uint64(l.cap) {
		start = int(l.seq % uint64(l.cap))
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range l.buf {
		var err error
		if line, err = appendRecord(line[:0], &l.buf[(start+i)%len(l.buf)]); err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
