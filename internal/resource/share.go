package resource

import "slices"

// Claim is one consumer's request in a fair-share round for a single
// resource dimension.
type Claim struct {
	// Demand is how much the consumer wants (same units as capacity).
	Demand float64
	// Weight scales the consumer's fair share. Non-positive weights are
	// treated as 1.
	Weight float64
	// Cap is a hard upper bound on the allocation (for example a VM's
	// vCPU limit, or a cgroup throttle installed by the DRM). Zero or
	// negative means "no cap".
	Cap float64
}

func (c Claim) effWeight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

func (c Claim) bound() float64 {
	b := c.Demand
	if c.Cap > 0 && c.Cap < b {
		b = c.Cap
	}
	if b < 0 {
		b = 0
	}
	return b
}

// FairShare divides capacity among claims by weighted max-min fairness
// (progressive filling): every claim is granted min(bound, weighted share),
// and capacity freed by claims that need less than their share is
// redistributed to the rest. The returned slice is parallel to claims and
// sums to at most capacity.
//
// The algorithm sorts claims by bound/weight and fills in one pass, which
// is O(n log n) and exact for the water-filling solution.
func FairShare(capacity float64, claims []Claim) []float64 {
	var s Solver
	return s.fairShare(capacity, claims)
}

// ShareVector solves FairShare independently on each resource dimension.
// demands, weights and caps are parallel slices: weights applies to all
// dimensions of a consumer, caps may be the zero Vector for "no cap".
func ShareVector(capacity Vector, demands []Vector, weights []float64, caps []Vector) []Vector {
	var s Solver
	return s.ShareVector(nil, capacity, demands, weights, caps)
}

// Solver is the fair-share kernel with reusable working buffers. Once
// its buffers have grown to the largest claim set seen, a solve
// allocates nothing. The zero value is ready to use. A Solver is not
// safe for concurrent use.
//
// The sort (pdqsort over perUnit, ties broken by the algorithm alone)
// and the order of the water-fill subtractions fix the low bits of every
// allocation; simulation outputs are byte-compared against goldens, so
// both are part of the kernel's contract.
type Solver struct {
	entries     []entry
	alloc       []float64
	totalWeight float64
}

type entry struct {
	idx     int
	bound   float64
	weight  float64
	perUnit float64 // bound / weight: the water level at which it saturates
}

// byPerUnit orders entries by saturation level. pdqsort only asks
// whether the result is negative, so this sorts exactly as the
// equivalent `<` less function does.
func byPerUnit(a, b entry) int {
	switch {
	case a.perUnit < b.perUnit:
		return -1
	case b.perUnit < a.perUnit:
		return 1
	}
	return 0
}

// fairShare is FairShare on the solver's buffers. The returned slice
// belongs to the solver and is overwritten by its next solve.
func (s *Solver) fairShare(capacity float64, claims []Claim) []float64 {
	s.reset(len(claims))
	for i, c := range claims {
		s.add(i, c)
	}
	return s.fill(capacity)
}

// ShareVector is the package-level ShareVector on the solver's buffers.
// It writes the allocations into out, reusing out's backing array when
// it is large enough, and returns the result (len(demands) long). out
// must not alias demands or caps.
func (s *Solver) ShareVector(out []Vector, capacity Vector, demands []Vector, weights []float64, caps []Vector) []Vector {
	out = grow(out, len(demands))
	for _, k := range Kinds() {
		ki := k.index()
		s.reset(len(demands))
		for i, d := range demands {
			c := Claim{Demand: d[ki], Weight: 1}
			if weights != nil {
				c.Weight = weights[i]
			}
			if caps != nil {
				c.Cap = caps[i][ki]
			}
			s.add(i, c)
		}
		allocs := s.fill(capacity[ki])
		for i := range out {
			out[i][ki] = allocs[i]
		}
	}
	return out
}

// reset starts a solve over n claims.
func (s *Solver) reset(n int) {
	s.alloc = grow(s.alloc, n)
	clear(s.alloc)
	s.entries = s.entries[:0]
	s.totalWeight = 0
}

// add enters claim i into the solve; claims with nothing to receive are
// left at zero.
func (s *Solver) add(i int, c Claim) {
	b := c.bound()
	if b <= 0 {
		return
	}
	w := c.effWeight()
	s.entries = append(s.entries, entry{idx: i, bound: b, weight: w, perUnit: b / w})
	s.totalWeight += w
}

// fill water-fills capacity over the added claims and returns the
// allocations, parallel to the claims.
func (s *Solver) fill(capacity float64) []float64 {
	alloc, entries, totalWeight := s.alloc, s.entries, s.totalWeight
	if capacity <= 0 {
		return alloc
	}
	slices.SortFunc(entries, byPerUnit)

	remaining := capacity
	for i, e := range entries {
		// Water level if the remaining capacity were spread over the
		// still-unsaturated claims.
		level := remaining / totalWeight
		if e.perUnit <= level {
			// Claim saturates below the water level: give it its bound.
			alloc[e.idx] = e.bound
			remaining -= e.bound
			totalWeight -= e.weight
			if remaining <= 0 {
				remaining = 0
			}
			continue
		}
		// All remaining claims are capacity-limited: split by weight.
		for _, e2 := range entries[i:] {
			alloc[e2.idx] = level * e2.weight
		}
		return alloc
	}
	return alloc
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
