// Package timeseries is the simulator's windowed streaming telemetry
// layer: counters, gauges and log-bucketed histogram digests aggregated
// per sim-clock window, with a label dimension (benchmark, job, service
// — pre-wiring tenants), in fixed memory regardless of how long the run
// is or how many events fire.
//
// # Memory model
//
// All series share one global window axis: windows of the current width
// starting at sim time zero. When an observation would land past the
// window cap, every series downsamples — adjacent window pairs merge and
// the width doubles — so the buffer never exceeds MaxWindows cells per
// series no matter the horizon. Counter cells are one float, gauge cells
// three words, and histogram cells are lazily allocated trace.Histogram
// digests (fixed-size themselves), so the collector's footprint is
// bounded by series-count × MaxWindows and independent of events fired.
//
// # Determinism
//
// Everything the collector emits is a pure function of the observations
// fed to it, which carry simulated timestamps; wall-clock never enters.
// Downsampling merges adjacent cells in a fixed order, and cross-label
// aggregation uses trace.MergeHistograms (order-independent float
// summation), so the JSONL export and every snapshot are byte-identical
// across runs and worker counts. Like the rest of the observability
// stack, a nil *Collector accepts the full API as a no-op, and a
// collector is single-goroutine, owned by one simulation run.
package timeseries

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/jsonenc"
	"repro/internal/trace"
)

// DefaultWindow is the initial window width (matching the utilization
// recorder's default sampling interval).
const DefaultWindow = 10 * time.Second

// DefaultMaxWindows caps the number of windows buffered per series
// before downsampling doubles the width: 240 ten-second windows cover a
// 40-minute run at full resolution and a week at ~42-minute resolution.
const DefaultMaxWindows = 240

// Kind classifies a series.
type Kind string

// Series kinds: counters aggregate per-window deltas (reported with a
// per-second rate), gauges keep last/mean/sample-count per window, and
// histograms keep a full mergeable log-bucketed digest per window.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindHist    Kind = "hist"
)

type seriesKey struct{ name, label string }

type gaugeCell struct {
	last float64
	sum  float64
	n    uint64
}

// series is one (name, label) stream. Exactly one of the cell slices is
// used, per kind; cells are indexed by window and grown lazily.
type series struct {
	name  string
	label string
	kind  Kind

	counters []float64
	gauges   []gaugeCell
	hists    []*trace.Histogram
}

type probe struct {
	name    string
	label   string
	fn      func() float64
	counter bool // cumulative source: record per-sample deltas
	prev    float64
	primed  bool
}

// Collector aggregates observations into the shared window axis. Use
// New; the zero value is not usable, but a nil *Collector is a valid
// disabled collector (every method no-ops).
type Collector struct {
	width      time.Duration
	maxWindows int
	// cursor is the highest window index any observation or probe sample
	// has reached; -1 until the first one.
	cursor int

	series map[seriesKey]*series
	order  []*series // insertion order; sorted at export
	probes []*probe
}

// New builds a collector. Non-positive arguments take DefaultWindow and
// DefaultMaxWindows; maxWindows is clamped to at least 8 so downsampling
// always has pairs to merge.
func New(window time.Duration, maxWindows int) *Collector {
	if window <= 0 {
		window = DefaultWindow
	}
	if maxWindows <= 0 {
		maxWindows = DefaultMaxWindows
	}
	if maxWindows < 8 {
		maxWindows = 8
	}
	return &Collector{
		width:      window,
		maxWindows: maxWindows,
		cursor:     -1,
		series:     make(map[seriesKey]*series),
	}
}

// Window returns the current window width (it doubles on downsampling).
func (c *Collector) Window() time.Duration {
	if c == nil {
		return 0
	}
	return c.width
}

// Windows returns the number of windows touched so far.
func (c *Collector) Windows() int {
	if c == nil {
		return 0
	}
	return c.cursor + 1
}

// MaxWindows returns the per-series buffer cap.
func (c *Collector) MaxWindows() int {
	if c == nil {
		return 0
	}
	return c.maxWindows
}

// at resolves the window index for a sim time, downsampling first if the
// index would exceed the cap, and advances the cursor.
func (c *Collector) at(t time.Duration) int {
	if t < 0 {
		t = 0
	}
	for int(t/c.width) >= c.maxWindows {
		c.downsample()
	}
	wi := int(t / c.width)
	if wi > c.cursor {
		c.cursor = wi
	}
	return wi
}

// downsample halves the resolution: adjacent window pairs (2i, 2i+1)
// merge into window i for every series, in fixed ascending order, and
// the width doubles. Counter deltas add, gauge cells pool (the later
// window's last value wins), histogram digests merge pairwise.
func (c *Collector) downsample() {
	for _, s := range c.order {
		switch s.kind {
		case KindCounter:
			n := (len(s.counters) + 1) / 2
			for i := 0; i < n; i++ {
				v := s.counters[2*i]
				if 2*i+1 < len(s.counters) {
					v += s.counters[2*i+1]
				}
				s.counters[i] = v
			}
			s.counters = s.counters[:n]
		case KindGauge:
			n := (len(s.gauges) + 1) / 2
			for i := 0; i < n; i++ {
				g := s.gauges[2*i]
				if 2*i+1 < len(s.gauges) {
					hi := s.gauges[2*i+1]
					if hi.n > 0 {
						g.last = hi.last
					}
					g.sum += hi.sum
					g.n += hi.n
				}
				s.gauges[i] = g
			}
			s.gauges = s.gauges[:n]
		case KindHist:
			n := (len(s.hists) + 1) / 2
			for i := 0; i < n; i++ {
				h := s.hists[2*i]
				if 2*i+1 < len(s.hists) {
					if hi := s.hists[2*i+1]; hi != nil {
						if h == nil {
							h = hi
						} else {
							h.Merge(hi)
						}
					}
				}
				s.hists[i] = h
			}
			for i := n; i < len(s.hists); i++ {
				s.hists[i] = nil
			}
			s.hists = s.hists[:n]
		}
	}
	c.width *= 2
	if c.cursor >= 0 {
		c.cursor /= 2
	}
}

// get finds or creates the (name, label) series, enforcing a stable kind.
func (c *Collector) get(name, label string, kind Kind) *series {
	key := seriesKey{name, label}
	s, ok := c.series[key]
	if !ok {
		s = &series{name: name, label: label, kind: kind}
		c.series[key] = s
		c.order = append(c.order, s)
	}
	if s.kind != kind {
		panic(fmt.Sprintf("timeseries: series %q label %q registered as %s, observed as %s",
			name, label, s.kind, kind))
	}
	return s
}

// Add accumulates a counter delta into the window containing sim time t.
func (c *Collector) Add(name, label string, t time.Duration, delta float64) {
	if c == nil {
		return
	}
	wi := c.at(t)
	s := c.get(name, label, KindCounter)
	for len(s.counters) <= wi {
		s.counters = append(s.counters, 0)
	}
	s.counters[wi] += delta
}

// SetGauge records a gauge sample into the window containing sim time t.
func (c *Collector) SetGauge(name, label string, t time.Duration, v float64) {
	if c == nil {
		return
	}
	wi := c.at(t)
	s := c.get(name, label, KindGauge)
	for len(s.gauges) <= wi {
		s.gauges = append(s.gauges, gaugeCell{})
	}
	g := &s.gauges[wi]
	g.last = v
	g.sum += v
	g.n++
}

// Observe records a histogram observation into the window containing sim
// time t.
func (c *Collector) Observe(name, label string, t time.Duration, v float64) {
	if c == nil {
		return
	}
	wi := c.at(t)
	s := c.get(name, label, KindHist)
	for len(s.hists) <= wi {
		s.hists = append(s.hists, nil)
	}
	if s.hists[wi] == nil {
		s.hists[wi] = &trace.Histogram{}
	}
	s.hists[wi].Observe(v)
}

// Probe registers a gauge probe: fn is read at every SampleProbes call
// (the utilization recorder's tick) and recorded as a gauge sample. The
// function must be cheap and side-effect-free.
func (c *Collector) Probe(name, label string, fn func() float64) {
	if c == nil || fn == nil {
		return
	}
	c.probes = append(c.probes, &probe{name: name, label: label, fn: fn})
	c.get(name, label, KindGauge)
}

// ProbeCounter registers a cumulative-counter probe: fn returns a
// monotonic total (e.g. events fired) and each SampleProbes call records
// the delta since the previous sample into the counter series — which
// the export then turns into a per-window rate.
func (c *Collector) ProbeCounter(name, label string, fn func() float64) {
	if c == nil || fn == nil {
		return
	}
	c.probes = append(c.probes, &probe{name: name, label: label, fn: fn, counter: true})
	c.get(name, label, KindCounter)
}

// SampleProbes reads every registered probe at sim time t. The
// utilization recorder calls it on each sampling tick, so probe series
// get one sample per interval; a final call at recorder Stop closes the
// books. Deltas before the first sample are attributed to it.
func (c *Collector) SampleProbes(t time.Duration) {
	if c == nil {
		return
	}
	for _, p := range c.probes {
		v := p.fn()
		if p.counter {
			if p.primed {
				c.Add(p.name, p.label, t, v-p.prev)
			} else {
				c.Add(p.name, p.label, t, v)
				p.primed = true
			}
			p.prev = v
			continue
		}
		c.SetGauge(p.name, p.label, t, v)
	}
}

// sorted returns the series in (name, label) order — the deterministic
// export order.
func (c *Collector) sorted() []*series {
	out := make([]*series, len(c.order))
	copy(out, c.order)
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].label < out[j].label
	})
	return out
}

// Point is one window of one series, with the aggregate fields of its
// kind populated.
type Point struct {
	// Window is the window index; Start/End bound it in sim time.
	Window int
	Start  time.Duration
	End    time.Duration

	// Counter: Delta is the windowed sum, Rate is Delta per second.
	Delta float64
	Rate  float64

	// Gauge: Last and Mean over the window's samples.
	Last    float64
	Mean    float64
	Samples uint64

	// Histogram: the window digest's summary.
	Hist trace.HistogramStats
}

// SeriesSnapshot is one series' windows, for the report's charts.
type SeriesSnapshot struct {
	Name   string
	Label  string
	Kind   Kind
	Points []Point
}

// Value returns the point's representative scalar for charting: rate for
// counters, mean for gauges, p99 for histograms.
func (p Point) Value(kind Kind) float64 {
	switch kind {
	case KindCounter:
		return p.Rate
	case KindGauge:
		return p.Mean
	default:
		return p.Hist.P99
	}
}

// Snapshot renders every series into its windowed aggregate form, in
// deterministic (name, label) order. Counter series materialize every
// window up to the cursor (a zero delta is real data); gauge and
// histogram series include only windows that saw samples.
func (c *Collector) Snapshot() []SeriesSnapshot {
	if c == nil {
		return nil
	}
	out := make([]SeriesSnapshot, 0, len(c.order))
	for _, s := range c.sorted() {
		snap := SeriesSnapshot{Name: s.name, Label: s.label, Kind: s.kind}
		switch s.kind {
		case KindCounter:
			for wi := 0; wi <= c.cursor; wi++ {
				var delta float64
				if wi < len(s.counters) {
					delta = s.counters[wi]
				}
				p := c.point(wi)
				p.Delta = delta
				p.Rate = delta / c.width.Seconds()
				snap.Points = append(snap.Points, p)
			}
		case KindGauge:
			for wi, g := range s.gauges {
				if g.n == 0 {
					continue
				}
				p := c.point(wi)
				p.Last = g.last
				p.Mean = g.sum / float64(g.n)
				p.Samples = g.n
				snap.Points = append(snap.Points, p)
			}
		case KindHist:
			for wi, h := range s.hists {
				if h == nil || h.Count() == 0 {
					continue
				}
				p := c.point(wi)
				p.Hist = h.Stats()
				snap.Points = append(snap.Points, p)
			}
		}
		out = append(out, snap)
	}
	return out
}

func (c *Collector) point(wi int) Point {
	return Point{
		Window: wi,
		Start:  time.Duration(wi) * c.width,
		End:    time.Duration(wi+1) * c.width,
	}
}

// windowHist returns the merged digest for (series, label) in window wi.
// label "*" aggregates across all labels of the series name with the
// order-independent multi-merge.
func (c *Collector) windowHist(name, label string, wi int) *trace.Histogram {
	if label != "*" {
		s := c.series[seriesKey{name, label}]
		if s == nil || wi >= len(s.hists) {
			return nil
		}
		return s.hists[wi]
	}
	var hs []*trace.Histogram
	for _, s := range c.sorted() {
		if s.name != name || s.kind != KindHist {
			continue
		}
		if wi < len(s.hists) && s.hists[wi] != nil {
			hs = append(hs, s.hists[wi])
		}
	}
	if len(hs) == 0 {
		return nil
	}
	if len(hs) == 1 {
		return hs[0]
	}
	return trace.MergeHistograms(hs)
}

// appendRow appends one series-window as a JSONL line: series, label
// (omitted when empty), kind, window, start_s and end_s, then the kind's
// fields — delta and rate_per_s for counters; last, mean and samples
// for gauges; mean, count, min, max, p50, p95 and p99 for histograms.
// Zero samples and count are omitted.
func appendRow(dst []byte, snap *SeriesSnapshot, p *Point) ([]byte, error) {
	dst = jsonenc.String(append(dst, `{"series":`...), snap.Name)
	if snap.Label != "" {
		dst = jsonenc.String(append(dst, `,"label":`...), snap.Label)
	}
	dst = jsonenc.String(append(dst, `,"kind":`...), string(snap.Kind))
	dst = jsonenc.Int(append(dst, `,"window":`...), int64(p.Window))
	var err error
	float := func(key string, v float64) {
		if err == nil {
			dst, err = jsonenc.Float(append(dst, key...), v)
		}
	}
	count := func(key string, v uint64) {
		if v != 0 {
			dst = jsonenc.Uint(append(dst, key...), v)
		}
	}
	float(`,"start_s":`, p.Start.Seconds())
	float(`,"end_s":`, p.End.Seconds())
	switch snap.Kind {
	case KindCounter:
		float(`,"delta":`, p.Delta)
		float(`,"rate_per_s":`, p.Rate)
	case KindGauge:
		float(`,"last":`, p.Last)
		float(`,"mean":`, p.Mean)
		count(`,"samples":`, p.Samples)
	case KindHist:
		float(`,"mean":`, p.Hist.Mean)
		count(`,"count":`, p.Hist.Count)
		float(`,"min":`, p.Hist.Min)
		float(`,"max":`, p.Hist.Max)
		float(`,"p50":`, p.Hist.P50)
		float(`,"p95":`, p.Hist.P95)
		float(`,"p99":`, p.Hist.P99)
	}
	return append(dst, '}', '\n'), err
}

// WriteJSONL exports every series-window as one JSON object per line,
// ordered by series name, label, then window — byte-deterministic for a
// given observation stream.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for _, snap := range c.Snapshot() {
		for i := range snap.Points {
			var err error
			if line, err = appendRow(line[:0], &snap, &snap.Points[i]); err != nil {
				return err
			}
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
