package resource

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// seedFairShare is the allocating, sort.Slice-based kernel the Solver
// replaced, frozen here as the reference for its tie order and bits.
func seedFairShare(capacity float64, claims []Claim) []float64 {
	alloc := make([]float64, len(claims))
	if capacity <= 0 || len(claims) == 0 {
		return alloc
	}
	type entry struct {
		idx     int
		bound   float64
		weight  float64
		perUnit float64
	}
	entries := make([]entry, 0, len(claims))
	totalWeight := 0.0
	for i, c := range claims {
		b := c.bound()
		if b <= 0 {
			continue
		}
		w := c.effWeight()
		entries = append(entries, entry{idx: i, bound: b, weight: w, perUnit: b / w})
		totalWeight += w
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].perUnit < entries[j].perUnit })
	remaining := capacity
	for i, e := range entries {
		level := remaining / totalWeight
		if e.perUnit <= level {
			alloc[e.idx] = e.bound
			remaining -= e.bound
			totalWeight -= e.weight
			if remaining <= 0 {
				remaining = 0
			}
			continue
		}
		for _, e2 := range entries[i:] {
			alloc[e2.idx] = level * e2.weight
		}
		return alloc
	}
	return alloc
}

// tiedClaims draws n claims whose bound/weight ratios collide often: the
// demands and weights come from small sets, so many claims saturate at
// the same water level and the sort's tie order decides which of them
// the fill visits first. The low-bit differences between a*w/w and a
// then reach the allocations.
func tiedClaims(rng *rand.Rand, n int) []Claim {
	demands := []float64{0, 0.1, 0.3, 0.7, 1, 1.5, 3, 7.3}
	weights := []float64{0, 0.3, 1, 1.5, 3}
	claims := make([]Claim, n)
	for i := range claims {
		c := Claim{
			Demand: demands[rng.Intn(len(demands))],
			Weight: weights[rng.Intn(len(weights))],
		}
		if rng.Intn(4) == 0 {
			c.Cap = demands[rng.Intn(len(demands))]
		}
		claims[i] = c
	}
	return claims
}

// TestSolverMatchesSeedKernelBits pins the Solver to the seed kernel bit
// for bit on claim sets full of perUnit ties, including sizes above
// pdqsort's 12-element insertion-sort cutoff where the tie order depends
// on the partitioning itself. Reusing one Solver across sizes also
// checks that stale buffer contents never leak into a result.
func TestSolverMatchesSeedKernelBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s Solver
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 40; trial++ {
			claims := tiedClaims(rng, n)
			var total float64
			for _, c := range claims {
				total += c.bound()
			}
			// Scarce, ample and exact capacities.
			for _, capacity := range []float64{total * 0.37, total * 0.9, total, total * 1.2, 0} {
				want := seedFairShare(capacity, claims)
				got := s.fairShare(capacity, claims)
				if len(got) != len(want) {
					t.Fatalf("n=%d: len %d, want %d", n, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d trial=%d cap=%v: alloc[%d] = %v (%#x), seed kernel %v (%#x)",
							n, trial, capacity, i, got[i], math.Float64bits(got[i]),
							want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestShareVectorMatchesSeedKernelBits checks the per-dimension wrapper
// against the seed kernel run one dimension at a time, with the output
// buffer reused across calls of different sizes.
func TestShareVectorMatchesSeedKernelBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Solver
	var out []Vector
	for _, n := range []int{1, 3, 12, 13, 17, 40, 64, 5} {
		demands := make([]Vector, n)
		weights := make([]float64, n)
		caps := make([]Vector, n)
		for k := 0; k < NumKinds; k++ {
			for i, c := range tiedClaims(rng, n) {
				demands[i][k] = c.Demand
				caps[i][k] = c.Cap
				weights[i] = c.Weight
			}
		}
		capacity := NewVector(float64(n)*0.4, float64(n)*2, float64(n)*5, 1)
		out = s.ShareVector(out, capacity, demands, weights, caps)
		for k := 0; k < NumKinds; k++ {
			claims := make([]Claim, n)
			for i := range claims {
				claims[i] = Claim{Demand: demands[i][k], Weight: weights[i], Cap: caps[i][k]}
			}
			want := seedFairShare(capacity[k], claims)
			for i := range want {
				if math.Float64bits(out[i][k]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d dim=%d: out[%d] = %v, seed kernel %v", n, k, i, out[i][k], want[i])
				}
			}
		}
	}
}

// TestSolverZeroAllocs pins the warm solve to zero allocations.
func TestSolverZeroAllocs(t *testing.T) {
	demands, weights, caps, capacity := benchClaims(16)
	var s Solver
	out := s.ShareVector(nil, capacity, demands, weights, caps)
	if allocs := testing.AllocsPerRun(100, func() {
		out = s.ShareVector(out, capacity, demands, weights, caps)
	}); allocs != 0 {
		t.Errorf("warm Solver.ShareVector allocates %.1f/op, want 0", allocs)
	}
}

// benchClaims builds n contended consumers: mixed weights, every third
// one capped, and a capacity at roughly half the total demand.
func benchClaims(n int) (demands []Vector, weights []float64, caps []Vector, capacity Vector) {
	rng := rand.New(rand.NewSource(int64(n)))
	demands = make([]Vector, n)
	weights = make([]float64, n)
	caps = make([]Vector, n)
	var total Vector
	for i := range demands {
		demands[i] = NewVector(rng.Float64()*2, rng.Float64()*1024, rng.Float64()*90, rng.Float64()*117)
		weights[i] = 0.5 + rng.Float64()*2
		if i%3 == 0 {
			caps[i] = demands[i].Scale(0.6)
		}
		total = total.Add(demands[i])
	}
	return demands, weights, caps, total.Scale(0.5)
}

func BenchmarkShareVector(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			demands, weights, caps, capacity := benchClaims(n)
			var s Solver
			out := s.ShareVector(nil, capacity, demands, weights, caps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = s.ShareVector(out, capacity, demands, weights, caps)
			}
		})
	}
}
