package timeseries

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"
)

// tsRow is the encoding/json schema WriteJSONL was first written
// against; refWriteJSONL is the reference its bytes must equal.
type tsRow struct {
	Series string  `json:"series"`
	Label  string  `json:"label,omitempty"`
	Kind   Kind    `json:"kind"`
	Window int     `json:"window"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	Delta *float64 `json:"delta,omitempty"`
	Rate  *float64 `json:"rate_per_s,omitempty"`

	Last    *float64 `json:"last,omitempty"`
	Mean    *float64 `json:"mean,omitempty"`
	Samples uint64   `json:"samples,omitempty"`

	Count uint64   `json:"count,omitempty"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P95   *float64 `json:"p95,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
}

func fptr(v float64) *float64 { return &v }

func refWriteJSONL(c *Collector, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, snap := range c.Snapshot() {
		for _, p := range snap.Points {
			row := tsRow{
				Series: snap.Name,
				Label:  snap.Label,
				Kind:   snap.Kind,
				Window: p.Window,
				StartS: p.Start.Seconds(),
				EndS:   p.End.Seconds(),
			}
			switch snap.Kind {
			case KindCounter:
				row.Delta = fptr(p.Delta)
				row.Rate = fptr(p.Rate)
			case KindGauge:
				row.Last = fptr(p.Last)
				row.Mean = fptr(p.Mean)
				row.Samples = p.Samples
			case KindHist:
				row.Count = p.Hist.Count
				row.Mean = fptr(p.Hist.Mean)
				row.Min = fptr(p.Hist.Min)
				row.Max = fptr(p.Hist.Max)
				row.P50 = fptr(p.Hist.P50)
				row.P95 = fptr(p.Hist.P95)
				row.P99 = fptr(p.Hist.P99)
			}
			if err := enc.Encode(row); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// FuzzTimeseriesJSONL feeds a counter, a gauge and a histogram series
// (labelled and unlabelled) two fuzzed values at two fuzzed instants,
// on a window small enough that late instants force downsampling. The
// export must equal the reference's bytes, or both must fail.
func FuzzTimeseriesJSONL(f *testing.F) {
	f.Add("mapred.task.slot_wait_sec", "Sort", 10.406551724, 0.25, uint16(15), uint16(42))
	f.Fuzz(func(t *testing.T, name, label string, v1, v2 float64, at1, at2 uint16) {
		c := New(time.Second, 8)
		t1, t2 := time.Duration(at1)*time.Second/4, time.Duration(at2)*time.Second/4
		for _, l := range []string{label, ""} {
			c.Add(name+"/c", l, t1, v1)
			c.Add(name+"/c", l, t2, v2)
			c.SetGauge(name+"/g", l, t1, v1)
			c.SetGauge(name+"/g", l, t2, v2)
			c.Observe(name+"/h", l, t1, v1)
			c.Observe(name+"/h", l, t2, v2)
		}
		var got, want bytes.Buffer
		gotErr, wantErr := c.WriteJSONL(&got), refWriteJSONL(c, &want)
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
