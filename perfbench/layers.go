package main

import (
	"math"
	"math/rand"
	"time"

	hybridmr "repro"
	"repro/internal/perfstat"
	"repro/internal/resource"
)

// probe is the traced run's view into the program: the benchmark's own
// spans around each call it makes into a layer, per-call SubmitJob
// timings and a PM.Watch tally of every fair-share resolve. The
// untraced run passes a nil *probe, on which every method is a no-op.
//
// The spans go into the deployment's own perfstat collector, so the
// program's spans nest under them and self times stay exact.
type probe struct {
	perf     *perfstat.Stats
	submitUS []float64
	watch    *resolveWatch
}

func newProbe(seed int64) *probe {
	return &probe{watch: newResolveWatch(seed)}
}

// span runs fn inside a benchmark span named name.
func (p *probe) span(name string, fn func()) {
	if p == nil || p.perf == nil {
		fn()
		return
	}
	p.perf.Enter(name)
	defer p.perf.Exit()
	fn()
}

// submit runs one SubmitJob call, timing it.
func (p *probe) submit(fn func()) {
	if p == nil {
		fn()
		return
	}
	start := time.Now()
	p.span("bench.submit", fn)
	p.submitUS = append(p.submitUS, float64(time.Since(start).Nanoseconds())/1e3)
}

// watchPMs registers the resolve tally on every PM of the deployment.
func (p *probe) watchPMs(pms []*hybridmr.PM) {
	if p == nil {
		return
	}
	for _, pm := range pms {
		pm := pm
		pm.Watch(func() { p.watch.capture(pm) })
	}
}

// consumerSet is the (Demand, Cap, Weight) input of every consumer on
// one PM at one resolve, native and VM-hosted alike.
type consumerSet struct {
	capacity resource.Vector
	demands  []resource.Vector
	weights  []float64
	caps     []resource.Vector
}

// maxReplaySets bounds the reservoir of captured consumer sets.
const maxReplaySets = 8192

// resolveWatch counts resolves and the consumers each one divides a PM
// among, and keeps a seeded uniform reservoir of their consumer sets
// for the kernel replay.
type resolveWatch struct {
	resolves int64
	byCount  map[int]int64
	seen     int64
	sets     []consumerSet
	rng      *rand.Rand
}

func newResolveWatch(seed int64) *resolveWatch {
	return &resolveWatch{byCount: make(map[int]int64), rng: rand.New(rand.NewSource(seed))}
}

func (w *resolveWatch) capture(pm *hybridmr.PM) {
	consumers := pm.Consumers()
	for _, vm := range pm.VMs() {
		consumers = append(consumers, vm.Consumers()...)
	}
	w.resolves++
	w.byCount[len(consumers)]++
	if len(consumers) == 0 {
		return
	}
	w.seen++
	slot := len(w.sets)
	if slot >= maxReplaySets {
		slot = int(w.rng.Int63n(w.seen))
		if slot >= maxReplaySets {
			return
		}
	}
	set := consumerSet{
		capacity: pm.Capacity(),
		demands:  make([]resource.Vector, len(consumers)),
		weights:  make([]float64, len(consumers)),
		caps:     make([]resource.Vector, len(consumers)),
	}
	for i, c := range consumers {
		set.demands[i] = c.Demand
		set.weights[i] = c.Weight
		set.caps[i] = c.Cap
	}
	if slot == len(w.sets) {
		w.sets = append(w.sets, set)
	} else {
		w.sets[slot] = set
	}
}

// consumersQuantile is the q-quantile of consumers per resolve.
func (w *resolveWatch) consumersQuantile(q float64) float64 {
	if w.resolves == 0 {
		return 0
	}
	maxN := 0
	for n := range w.byCount {
		maxN = max(maxN, n)
	}
	rank := int64(math.Ceil(q * float64(w.resolves)))
	var acc int64
	for n := 0; n <= maxN; n++ {
		acc += w.byCount[n]
		if acc >= rank {
			return float64(n)
		}
	}
	return float64(maxN)
}

// shareBuckets names the consumer-count buckets of the replay timings.
var shareBuckets = []struct {
	name   string
	lo, hi int
}{
	{"n1", 1, 1}, {"n2-3", 2, 3}, {"n4-7", 4, 7}, {"n8-15", 8, 15}, {"n16plus", 16, math.MaxInt},
}

// replayResult is the fair-share kernel's cost on the captured inputs.
type replayResult struct {
	calls         int
	nsP50, nsP99  float64
	bucketP50     []float64 // parallel to shareBuckets
	allocsPerCall float64
}

// replayReps is how many times each captured set is replayed.
const replayReps = 4

// replayShare re-solves every captured consumer set with
// resource.ShareVector, timing each call and checking the kernel's
// invariants on its output: no allocation exceeds its bound and no
// dimension hands out more than the capacity. Every call is one
// operation in o.
//
// The replay measures the kernel at the workload's real input sizes.
// It is one flat call over all of a PM's consumers, not the two-level
// (PM across VMs, then VM across members) solve that resolve makes.
func replayShare(sets []consumerSet, o *ops) replayResult {
	res := replayResult{bucketP50: make([]float64, len(shareBuckets))}
	if len(sets) == 0 {
		return res
	}
	var all []float64
	byBucket := make([][]float64, len(shareBuckets))
	for _, s := range sets {
		b := bucketOf(len(s.demands))
		for r := 0; r < replayReps; r++ {
			start := time.Now()
			out := resource.ShareVector(s.capacity, s.demands, s.weights, s.caps)
			ns := float64(time.Since(start).Nanoseconds())
			all = append(all, ns)
			byBucket[b] = append(byBucket[b], ns)
			bad := shareViolation(s, out)
			o.check(bad == "", "ShareVector over %d consumers: %s", len(s.demands), bad)
		}
	}
	res.calls = len(all)
	res.nsP50 = quantile(all, 0.5)
	res.nsP99 = quantile(all, 0.99)
	for i, xs := range byBucket {
		res.bucketP50[i] = quantile(xs, 0.5)
	}

	// Allocations per call, counted over an untimed pass.
	before := readHost()
	for _, s := range sets {
		_ = resource.ShareVector(s.capacity, s.demands, s.weights, s.caps)
	}
	after := readHost()
	res.allocsPerCall = float64(after.allocObjs-before.allocObjs) / float64(len(sets))
	return res
}

func bucketOf(n int) int {
	for i, b := range shareBuckets {
		if n >= b.lo && n <= b.hi {
			return i
		}
	}
	return len(shareBuckets) - 1
}

// shareViolation returns "" when out satisfies the kernel invariants
// for s, and a description of the first violation otherwise.
func shareViolation(s consumerSet, out []resource.Vector) string {
	const eps = 1e-9
	if len(out) != len(s.demands) {
		return "wrong result length"
	}
	for _, k := range resource.Kinds() {
		capK := s.capacity.Get(k)
		var sum float64
		for i, a := range out {
			v := a.Get(k)
			bound := s.demands[i].Get(k)
			if c := s.caps[i].Get(k); c > 0 && c < bound {
				bound = c
			}
			bound = math.Max(bound, 0)
			if v < -eps || v > bound+eps*math.Max(1, bound) || math.IsNaN(v) {
				return k.String() + ": allocation outside [0, bound]"
			}
			sum += v
		}
		if sum > math.Max(capK, 0)+eps*math.Max(1, capK) {
			return k.String() + ": allocations exceed capacity"
		}
	}
	return ""
}

// spanSelf sums the self time (own wall time minus its children's) of
// every span named name anywhere in the tree.
func spanSelf(spans []perfstat.SpanSnapshot, name string) float64 {
	var total float64
	for _, sp := range spans {
		if sp.Name == name {
			self := sp.WallSeconds
			for _, c := range sp.Children {
				self -= c.WallSeconds
			}
			total += self
		}
		total += spanSelf(sp.Children, name)
	}
	return total
}
