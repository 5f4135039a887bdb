package mapred

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
)

// The index layer exists to make steady-state scheduling cheap at
// datacenter scale, so its maintenance operations must not allocate
// once the backing slices have grown to the fleet's working size —
// otherwise a 10k-PM run spends its time in the garbage collector
// instead of the event loop. Growth allocations (first insert into a
// fresh set, a new node bucket) are expected and excluded by
// prewarming before measuring.

// TestFreeSetMaintenanceZeroAlloc measures the slot-churn hot path:
// a tracker leaving and re-entering the free-slot sets as its map and
// reduce slots fill and drain.
func TestFreeSetMaintenanceZeroAlloc(t *testing.T) {
	_, jt := rig(t, 16, Config{}, nil)
	trackers := jt.Trackers()
	tr := trackers[len(trackers)/2]
	churn := func() {
		tr.mapRunning = jt.cfg.MapSlots
		tr.redsRunning = jt.cfg.ReduceSlots
		jt.syncFree(tr) // leaves both sets
		tr.mapRunning = 0
		tr.redsRunning = 0
		jt.syncFree(tr) // re-enters both sets
	}
	churn() // prewarm: every tracker already resides in both sets from AddTracker
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("free-set churn allocates %.1f times per slot cycle, want 0", allocs)
	}
}

// TestRunningIndexMaintenanceZeroAlloc measures the attempt-launch and
// -release hot path: inserting into and removing from the name-sorted
// running list and its per-node bucket.
func TestRunningIndexMaintenanceZeroAlloc(t *testing.T) {
	_, jt := rig(t, 16, Config{}, nil)
	trackers := jt.Trackers()
	attempts := make([]*Attempt, len(trackers))
	for i, tr := range trackers {
		attempts[i] = &Attempt{
			Tracker:  tr,
			consumer: &cluster.Consumer{Name: fmt.Sprintf("alloc-test-%02d", i)},
		}
	}
	churn := func() {
		for _, a := range attempts {
			jt.runningInsert(a)
		}
		for _, a := range attempts {
			jt.runningRemove(a)
		}
	}
	churn() // prewarm: creates the node buckets and grows the slices once
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("running-index churn allocates %.1f times per launch/release sweep, want 0", allocs)
	}
}

// TestPressureRefreshKeepsSetsOrdered drives the dirty-PM refresh path
// and verifies both free-slot sets stay sorted under their comparator,
// in well-formed chunks — the invariant the binary searches in
// freeSet.insert/remove rely on.
func TestPressureRefreshKeepsSetsOrdered(t *testing.T) {
	_, jt := rig(t, 16, Config{CapacityAware: true}, nil)
	for _, tr := range jt.Trackers() {
		jt.refreshPressure(tr)
	}
	checkFreeSet(t, &jt.freeMaps)
	checkFreeSet(t, &jt.freeReds)
}

// checkFreeSet asserts a free set's shape: every chunk is non-empty and
// within freeChunkMax, and the concatenation is strictly ordered.
func checkFreeSet(t *testing.T, s *freeSet) {
	t.Helper()
	for i, c := range s.chunks {
		if len(c) == 0 || len(c) > freeChunkMax {
			t.Fatalf("chunk %d holds %d trackers, want 1..%d", i, len(c), freeChunkMax)
		}
	}
	all := s.appendTo(nil)
	for i := 1; i < len(all); i++ {
		if !s.less(all[i-1], all[i]) {
			t.Fatalf("free set out of order at %d: idx %d (pressure %v) before idx %d (pressure %v)",
				i, all[i-1].idx, all[i-1].pressure, all[i].idx, all[i].pressure)
		}
	}
}

// flatFreeSet is the reference the chunked set must reproduce: one
// sorted slice with the (pressure, idx) order, kept by shifting the tail
// on every insert and remove.
type flatFreeSet struct {
	byPressure bool
	set        []*TaskTracker
}

func (f *flatFreeSet) less(a, b *TaskTracker) bool {
	if f.byPressure && a.pressure != b.pressure {
		return a.pressure < b.pressure
	}
	return a.idx < b.idx
}

func (f *flatFreeSet) insert(tr *TaskTracker) {
	i := sort.Search(len(f.set), func(i int) bool { return f.less(tr, f.set[i]) })
	f.set = append(f.set, nil)
	copy(f.set[i+1:], f.set[i:])
	f.set[i] = tr
}

func (f *flatFreeSet) remove(tr *TaskTracker) {
	for i, x := range f.set {
		if x == tr {
			f.set = append(f.set[:i], f.set[i+1:]...)
			return
		}
	}
}

// TestFreeSetMatchesFlatReference churns the chunked set and the flat
// reference with the same random inserts, removes and re-keys — with
// pressure ties and +Inf pressures forced — and requires the same order
// after every operation, at sizes around each chunk boundary and at
// datacenter scale, through a full drain and refill. At datacenter scale
// the bulk fill, drain and refill compare every 100th step, which keeps
// the race-detector run short; the random churn still compares every
// step.
func TestFreeSetMatchesFlatReference(t *testing.T) {
	pressures := []float64{0, 0.25, 1, math.Inf(1)}
	for _, byPressure := range []bool{true, false} {
		for _, n := range []int{1, freeChunkMax - 1, freeChunkMax, 2 * freeChunkMax, 2*freeChunkMax + 1, 10000} {
			t.Run(fmt.Sprintf("pressure=%v/n=%d", byPressure, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				newPressure := func() float64 {
					if rng.Intn(2) == 0 {
						return pressures[rng.Intn(len(pressures))]
					}
					return rng.Float64()
				}
				pool := make([]*TaskTracker, n+2)
				member := make([]bool, len(pool))
				for i := range pool {
					pool[i] = &TaskTracker{idx: i, pressure: newPressure()}
				}
				s := &freeSet{byPressure: byPressure}
				ref := &flatFreeSet{byPressure: byPressure}
				var snap []*TaskTracker
				bulkEvery := 1
				if n > 2*freeChunkMax+1 {
					bulkEvery = 100
				}
				steps := 0
				check := func(op string) {
					t.Helper()
					snap = s.appendTo(snap[:0])
					if len(snap) != len(ref.set) {
						t.Fatalf("after %s: %d members, reference has %d", op, len(snap), len(ref.set))
					}
					for i := range snap {
						if snap[i] != ref.set[i] {
							t.Fatalf("after %s: position %d holds idx %d, reference idx %d",
								op, i, snap[i].idx, ref.set[i].idx)
						}
					}
				}
				for _, i := range rng.Perm(n) {
					s.insert(pool[i])
					ref.insert(pool[i])
					member[i] = true
					if steps++; steps%bulkEvery == 0 {
						check("fill")
					}
				}
				check("fill")
				checkFreeSet(t, s)
				ops := 4 * n
				if ops > 1000 {
					ops = 1000
				}
				for k := 0; k < ops; k++ {
					i := rng.Intn(len(pool))
					tr := pool[i]
					switch {
					case !member[i]:
						s.insert(tr)
						ref.insert(tr)
						member[i] = true
						check("insert")
					case rng.Intn(2) == 0:
						s.remove(tr)
						ref.remove(tr)
						member[i] = false
						check("remove")
					default: // re-key, as refreshPressure does
						s.remove(tr)
						ref.remove(tr)
						tr.pressure = newPressure()
						s.insert(tr)
						ref.insert(tr)
						check("re-key")
					}
				}
				checkFreeSet(t, s)
				for _, i := range rng.Perm(len(pool)) {
					if member[i] {
						s.remove(pool[i])
						ref.remove(pool[i])
						member[i] = false
						if steps++; steps%bulkEvery == 0 {
							check("drain")
						}
					}
				}
				check("drain")
				if len(s.chunks) != 0 {
					t.Fatalf("drained set keeps %d chunks", len(s.chunks))
				}
				for _, i := range rng.Perm(len(pool)) {
					s.insert(pool[i])
					ref.insert(pool[i])
					if steps++; steps%bulkEvery == 0 {
						check("refill")
					}
				}
				check("refill")
				checkFreeSet(t, s)
			})
		}
	}
}

// TestFreeSetZeroAllocs measures steady-state churn on a warmed set:
// re-keys that move trackers across chunks, a full drain and a refill.
// Emptied chunks must be recycled, not freed and remade.
func TestFreeSetZeroAllocs(t *testing.T) {
	pool := make([]*TaskTracker, 3*freeChunkMax+7)
	for i := range pool {
		pool[i] = &TaskTracker{idx: i, pressure: float64(i % 5)}
	}
	s := &freeSet{byPressure: true}
	for _, tr := range pool {
		s.insert(tr)
	}
	round := 0
	churn := func() {
		round++
		for i := 0; i < len(pool); i += 17 {
			tr := pool[i]
			s.remove(tr)
			tr.pressure = float64((i + round) % 7)
			s.insert(tr)
		}
		for _, tr := range pool {
			s.remove(tr)
		}
		for i := len(pool) - 1; i >= 0; i-- {
			s.insert(pool[i])
		}
	}
	for i := 0; i < 10; i++ {
		churn() // warm the chunk list, the spare list and the chunks
	}
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("free-set churn allocates %.1f times per round, want 0", allocs)
	}
	checkFreeSet(t, s)
}
