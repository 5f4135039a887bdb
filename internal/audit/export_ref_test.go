package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"
)

// jsonCandidate and jsonRecord are the encoding/json schema WriteJSONL
// was first written against; refWriteJSONL is the reference its bytes
// must equal.
type jsonCandidate struct {
	Name   string  `json:"name"`
	Score  float64 `json:"score"`
	Chosen bool    `json:"chosen,omitempty"`
	Note   string  `json:"note,omitempty"`
}

type jsonRecord struct {
	Seq        uint64          `json:"seq"`
	TsUs       int64           `json:"ts_us"`
	Subsystem  string          `json:"subsystem"`
	Action     string          `json:"action"`
	Subject    string          `json:"subject"`
	Decision   string          `json:"decision"`
	Reason     string          `json:"reason,omitempty"`
	Candidates []jsonCandidate `json:"candidates,omitempty"`
}

func refWriteJSONL(l *Log, w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range l.Records() {
		jr := jsonRecord{
			Seq:       r.Seq,
			TsUs:      r.At.Microseconds(),
			Subsystem: r.Subsystem,
			Action:    r.Action,
			Subject:   r.Subject,
			Decision:  r.Decision,
			Reason:    r.Reason,
		}
		for _, c := range r.Candidates {
			jr.Candidates = append(jr.Candidates, jsonCandidate{
				Name: c.Name, Score: c.Score, Chosen: c.Chosen, Note: c.Note,
			})
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return nil
}

// FuzzAuditJSONL fills a small ring (so it wraps) with records built from
// fuzzed fields: zero to three candidates each, reason and note set on
// alternate records, chosen on some, and scores derived from the fuzzed
// one. The export must equal the reference's bytes, or both must fail.
func FuzzAuditJSONL(f *testing.F) {
	f.Add("phase1", "place", "Sort-1", "native", "cheaper", "pm-0", "est JCT s", 12.5, true, uint8(5), uint8(3), int64(time.Second))
	f.Fuzz(func(t *testing.T, subsystem, action, subject, decision, reason, name, note string,
		score float64, chosen bool, records, capacity uint8, step int64) {
		clk := &fakeClock{}
		l := New(int(capacity%8) + 1)
		l.SetClock(clk)
		for i := 0; i < int(records%16); i++ {
			clk.now += time.Duration(step)
			cands := make([]Candidate, i%4)
			for j := range cands {
				cands[j] = Candidate{Name: name, Score: score / float64(j+1), Chosen: chosen && j == i%3}
				if (i+j)%2 == 1 {
					cands[j].Note = note
				}
			}
			why := reason
			if i%2 == 0 {
				why = ""
			}
			l.Add(subsystem, action, subject, decision, why, cands...)
		}
		var got, want bytes.Buffer
		gotErr, wantErr := l.WriteJSONL(&got), refWriteJSONL(l, &want)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil {
				t.Fatalf("error mismatch: got %v, reference %v", gotErr, wantErr)
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("bytes differ from the encoding/json reference\n got %s\nwant %s", got.Bytes(), want.Bytes())
		}
	})
}

// busyLog fills a log with n assign-like records of eight candidates.
func busyLog(n int) *Log {
	clk := &fakeClock{}
	l := New(n)
	l.SetClock(clk)
	cands := make([]Candidate, 8)
	for i := 0; i < n; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		for j := range cands {
			cands[j] = Candidate{Name: fmt.Sprintf("vm-%d", j), Score: float64(i+j) / 3, Chosen: j == i%8, Note: "machine pressure"}
		}
		l.Add("mapred", "assign", fmt.Sprintf("Sort-1/map-%d", i), "vm-3",
			"capacity-aware: least-pressure machine first", append([]Candidate(nil), cands...)...)
	}
	return l
}

// TestWriteJSONLAllocsPerCall holds the export to a few allocations per
// call (the buffered writer and the line buffer's growth), none per
// record.
func TestWriteJSONLAllocsPerCall(t *testing.T) {
	l := busyLog(1000)
	allocs := testing.AllocsPerRun(10, func() { _ = l.WriteJSONL(io.Discard) })
	if allocs > 16 {
		t.Errorf("WriteJSONL: %.0f allocs for %d records, want at most 16 per call", allocs, l.Len())
	}
}

func BenchmarkAuditWriteJSONL(b *testing.B) {
	l := busyLog(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.Len()), "ns/record")
}
