package mapred

import (
	"sort"

	"repro/internal/cluster"
)

// This file is the JobTracker's incremental index layer. Three structures
// replace the full-fleet scans the scale sweep measured superlinear:
//
//   - freeMaps/freeReds: trackers with a free slot of each task type,
//     ordered by (cached machine pressure, registration index).
//     schedule() merge-iterates them instead of copying and sorting the
//     whole fleet every call. The sets are per task type because they
//     must be: a tracker whose map slots are full but reduce slots are
//     empty would otherwise sit in every map wave's scan as a no-op
//     visit, and with waves sized to the fleet those visits are the
//     O(n^2) the sweep measured. Each set is a freeSet of bounded sorted
//     chunks, so keeping it ordered costs a bounded move per change
//     instead of shifting the whole tail of one fleet-sized slice.
//   - runningSorted: every running attempt ordered by consumer name,
//     maintained at launch/release. RunningAttempts() copies it instead
//     of rebuilding and sorting from the attempts map.
//   - buckets/bucketOrder: running attempts grouped per compute node in
//     node-name order, the exact iteration order the DRM's tick used to
//     reconstruct by sorting every sweep.
//
// Cached pressures are invalidated through cluster watchers: every PM
// backing a tracker notifies the JobTracker when its allocation is
// re-solved (consumer attach/detach, demand or cap change, VM arrival or
// departure, failure), and flushDirty refreshes exactly the affected
// trackers at the next schedule() entry. Because every input of
// trackerPressure changes only through PM re-solves, the cached value at
// schedule() entry always equals what a fresh computation would return —
// the index changes where the cost goes, never what is decided.

// freeChunkMax bounds one chunk of a free-slot set. A full chunk splits
// in two before it takes another tracker, so an insert, a remove or a
// re-key moves at most this many pointers, whatever the fleet size.
const freeChunkMax = 256

// freeSet is one free-slot set: the trackers with a free slot of one task
// type, ordered by (cached pressure, registration index) when byPressure
// is set and by registration index alone otherwise. The order is held as
// a list of sorted, non-empty chunks whose concatenation is the set; a
// lookup binary-searches the chunks' last elements, then the one chunk.
type freeSet struct {
	byPressure bool
	chunks     [][]*TaskTracker
	// spare holds emptied chunks for reuse. Small clusters empty and
	// refill their sets on every slot cycle, and a chunk freed each time
	// would be garbage the collector has to chase.
	spare [][]*TaskTracker
}

// less is the set's order: by cached pressure then registration index
// under CapacityAware (the stable-sort order the scan-based scheduler
// produced each call), by registration index alone otherwise (the fixed
// heartbeat order of vanilla Hadoop). Registration indexes are unique, so
// no two members compare equal.
func (s *freeSet) less(a, b *TaskTracker) bool {
	if s.byPressure && a.pressure != b.pressure {
		return a.pressure < b.pressure
	}
	return a.idx < b.idx
}

// insert adds a tracker at its ordered position.
func (s *freeSet) insert(tr *TaskTracker) {
	if len(s.chunks) == 0 {
		s.chunks = append(s.chunks, append(s.newChunk(), tr))
		return
	}
	// The first chunk whose last member sorts after tr takes it; a tracker
	// sorting after every member goes to the end of the last chunk.
	ci := sort.Search(len(s.chunks), func(i int) bool {
		c := s.chunks[i]
		return s.less(tr, c[len(c)-1])
	})
	if ci == len(s.chunks) {
		ci--
	}
	if len(s.chunks[ci]) == freeChunkMax {
		s.split(ci)
		if c := s.chunks[ci]; s.less(c[len(c)-1], tr) {
			ci++
		}
	}
	c := s.chunks[ci]
	j := sort.Search(len(c), func(j int) bool { return s.less(tr, c[j]) })
	c = append(c, nil)
	copy(c[j+1:], c[j:])
	c[j] = tr
	s.chunks[ci] = c
}

// remove deletes a tracker. The search runs on the same cached key the
// tracker was inserted under, so it lands on the exact slot; a tracker
// that is not a member is left alone.
func (s *freeSet) remove(tr *TaskTracker) {
	ci := sort.Search(len(s.chunks), func(i int) bool {
		c := s.chunks[i]
		return !s.less(c[len(c)-1], tr)
	})
	if ci == len(s.chunks) {
		return
	}
	c := s.chunks[ci]
	j := sort.Search(len(c), func(j int) bool { return !s.less(c[j], tr) })
	if c[j] != tr {
		return
	}
	copy(c[j:], c[j+1:])
	c[len(c)-1] = nil
	c = c[:len(c)-1]
	if len(c) > 0 {
		s.chunks[ci] = c
		return
	}
	s.spare = append(s.spare, c)
	copy(s.chunks[ci:], s.chunks[ci+1:])
	s.chunks[len(s.chunks)-1] = nil
	s.chunks = s.chunks[:len(s.chunks)-1]
}

// split moves the upper half of a full chunk into a new chunk right
// after it.
func (s *freeSet) split(ci int) {
	c := s.chunks[ci]
	half := len(c) / 2
	upper := append(s.newChunk(), c[half:]...)
	clear(c[half:])
	s.chunks[ci] = c[:half]
	s.chunks = append(s.chunks, nil)
	copy(s.chunks[ci+2:], s.chunks[ci+1:])
	s.chunks[ci+1] = upper
}

// newChunk returns an empty chunk with room for freeChunkMax trackers,
// recycled when one is spare, so a chunk never grows after it is made.
func (s *freeSet) newChunk() []*TaskTracker {
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return c
	}
	return make([]*TaskTracker, 0, freeChunkMax)
}

// appendTo appends the members in order to dst and returns the result.
func (s *freeSet) appendTo(dst []*TaskTracker) []*TaskTracker {
	for _, c := range s.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// syncFree reconciles a tracker's free-slot set memberships with its
// slot counters; launch and releaseSlot call it after every change.
func (jt *JobTracker) syncFree(tr *TaskTracker) {
	if freeM := tr.mapRunning < jt.cfg.MapSlots; freeM != tr.inFreeMaps {
		if freeM {
			jt.freeMaps.insert(tr)
		} else {
			jt.freeMaps.remove(tr)
		}
		tr.inFreeMaps = freeM
	}
	if freeR := tr.redsRunning < jt.cfg.ReduceSlots; freeR != tr.inFreeReds {
		if freeR {
			jt.freeReds.insert(tr)
		} else {
			jt.freeReds.remove(tr)
		}
		tr.inFreeReds = freeR
	}
}

// watchPM installs the pressure-invalidation watcher on a PM the first
// time a tracker is backed by it.
func (jt *JobTracker) watchPM(pm *cluster.PM) {
	if pm == nil || jt.watched[pm] {
		return
	}
	jt.watched[pm] = true
	pm.Watch(func() { jt.markDirty(pm) })
}

// markDirty queues a PM whose allocation changed for a pressure refresh.
func (jt *JobTracker) markDirty(pm *cluster.PM) {
	if jt.dirtySet[pm] {
		return
	}
	jt.dirtySet[pm] = true
	jt.dirtyPMs = append(jt.dirtyPMs, pm)
}

// flushDirty refreshes the cached pressure of every tracker on a dirtied
// machine, re-slotting it in the free index under its new key. Trackers
// whose compute VM migrated away are remapped to their current machine
// first (the source PM is always dirtied by the migration's detach).
// Pressures never change between flushes — every input of
// trackerPressure changes only through a PM re-solve, which dirties the
// machine — so after a flush every cached value equals a fresh one.
func (jt *JobTracker) flushDirty() {
	if !jt.cfg.CapacityAware || len(jt.dirtyPMs) == 0 {
		return
	}
	for _, pm := range jt.dirtyPMs {
		delete(jt.dirtySet, pm)
		list := jt.pmTrackers[pm]
		for i := 0; i < len(list); i++ {
			tr := list[i]
			if cur := tr.Compute.Machine(); cur != pm {
				list[i] = list[len(list)-1]
				list[len(list)-1] = nil
				list = list[:len(list)-1]
				i--
				tr.pm = cur
				if cur != nil {
					jt.pmTrackers[cur] = append(jt.pmTrackers[cur], tr)
					jt.watchPM(cur)
				}
			}
			jt.refreshPressure(tr)
		}
		jt.pmTrackers[pm] = list
	}
	jt.dirtyPMs = jt.dirtyPMs[:0]
}

// refreshPressure recomputes one tracker's cached pressure, keeping the
// free-slot sets ordered: entries are removed under the old key and
// reinserted under the new one. jt.pressure_probes counts exactly these
// recomputations now — the real work done — instead of two probes per
// sort comparison.
func (jt *JobTracker) refreshPressure(tr *TaskTracker) {
	if tr.inFreeMaps {
		jt.freeMaps.remove(tr)
	}
	if tr.inFreeReds {
		jt.freeReds.remove(tr)
	}
	if jt.perf != nil {
		jt.perf.C.JTPressureProbes++
	}
	tr.pressure = trackerPressure(tr)
	if tr.inFreeMaps {
		jt.freeMaps.insert(tr)
	}
	if tr.inFreeReds {
		jt.freeReds.insert(tr)
	}
}

// runningInsert adds a just-launched attempt to the name-sorted running
// list and its node bucket.
func (jt *JobTracker) runningInsert(a *Attempt) {
	name := a.consumer.Name
	i := sort.Search(len(jt.runningSorted), func(i int) bool {
		return jt.runningSorted[i].consumer.Name >= name
	})
	jt.runningSorted = append(jt.runningSorted, nil)
	copy(jt.runningSorted[i+1:], jt.runningSorted[i:])
	jt.runningSorted[i] = a

	node := a.Tracker.Compute
	b, ok := jt.buckets[node]
	if !ok {
		b = &nodeBucket{node: node, name: node.Name()}
		jt.buckets[node] = b
		j := sort.Search(len(jt.bucketOrder), func(j int) bool {
			return jt.bucketOrder[j].name >= b.name
		})
		jt.bucketOrder = append(jt.bucketOrder, nil)
		copy(jt.bucketOrder[j+1:], jt.bucketOrder[j:])
		jt.bucketOrder[j] = b
	}
	j := sort.Search(len(b.attempts), func(j int) bool {
		return b.attempts[j].consumer.Name >= name
	})
	b.attempts = append(b.attempts, nil)
	copy(b.attempts[j+1:], b.attempts[j:])
	b.attempts[j] = a
}

// runningRemove drops a finished or killed attempt from the running list
// and its node bucket. Emptied buckets stay registered (skipped by
// iteration) so node churn never reshuffles bucketOrder.
func (jt *JobTracker) runningRemove(a *Attempt) {
	name := a.consumer.Name
	i := sort.Search(len(jt.runningSorted), func(i int) bool {
		return jt.runningSorted[i].consumer.Name >= name
	})
	for i < len(jt.runningSorted) && jt.runningSorted[i] != a {
		i++
	}
	if i < len(jt.runningSorted) {
		jt.runningSorted = append(jt.runningSorted[:i], jt.runningSorted[i+1:]...)
	}
	if b, ok := jt.buckets[a.Tracker.Compute]; ok {
		j := sort.Search(len(b.attempts), func(j int) bool {
			return b.attempts[j].consumer.Name >= name
		})
		for j < len(b.attempts) && b.attempts[j] != a {
			j++
		}
		if j < len(b.attempts) {
			b.attempts = append(b.attempts[:j], b.attempts[j+1:]...)
		}
	}
}

// RunningCount returns the number of attempts currently executing,
// without materializing the list.
func (jt *JobTracker) RunningCount() int { return len(jt.runningSorted) }

// EachNodeAttempts visits every compute node with running attempts in
// node-name order, passing the attempts on it ordered by consumer name —
// the grouping and order the Phase II DRM's sweep previously rebuilt from
// scratch each tick. The callback must not launch, kill, or relocate
// attempts; adjusting demands, caps, and weights is safe.
func (jt *JobTracker) EachNodeAttempts(fn func(node cluster.Node, attempts []*Attempt)) {
	for _, b := range jt.bucketOrder {
		if len(b.attempts) > 0 {
			fn(b.node, b.attempts)
		}
	}
}

// attemptsOn snapshots the running attempts of one tracker in consumer-
// name order, for the failure path that kills them (killing mutates the
// bucket, so iteration needs a stable copy). The returned slice is reused
// across calls.
func (jt *JobTracker) attemptsOn(tr *TaskTracker) []*Attempt {
	out := jt.runningSnap[:0]
	if b, ok := jt.buckets[tr.Compute]; ok {
		for _, a := range b.attempts {
			if a.Tracker == tr {
				out = append(out, a)
			}
		}
	}
	jt.runningSnap = out
	return out
}

// setTaskState moves a task between scheduling states, maintaining the
// per-job pending counters and the gate-aware schedulable totals that let
// schedule() prove "no assignable work" in O(1).
func (jt *JobTracker) setTaskState(t *Task, s TaskState) {
	old := t.state
	if old == s {
		return
	}
	t.state = s
	job := t.Job
	if t.Kind == MapTask {
		if old == TaskPending {
			job.pendingMaps--
			if job.state == JobMapPhase {
				jt.schedulableMaps--
			}
		}
		if s == TaskPending {
			job.pendingMaps++
			if job.state == JobMapPhase {
				jt.schedulableMaps++
			}
		}
		return
	}
	if old == TaskPending {
		job.pendingReds--
		if job.state == JobReducePhase {
			jt.schedulableReds--
		}
	}
	if s == TaskPending {
		job.pendingReds++
		if job.state == JobReducePhase {
			jt.schedulableReds++
		}
	}
}

// setJobState moves a job between phases, shifting its pending tasks'
// contribution between the schedulable totals as the phase gates open and
// close (maps schedule only in JobMapPhase, reduces only in
// JobReducePhase — the same gates pendingTask and hasPending enforce).
func (jt *JobTracker) setJobState(job *Job, s JobState) {
	switch job.state {
	case JobMapPhase:
		jt.schedulableMaps -= job.pendingMaps
	case JobReducePhase:
		jt.schedulableReds -= job.pendingReds
	}
	job.state = s
	switch s {
	case JobMapPhase:
		jt.schedulableMaps += job.pendingMaps
	case JobReducePhase:
		jt.schedulableReds += job.pendingReds
	}
}

// removeActiveJob drops a completed job from the submission-ordered
// active list.
func (jt *JobTracker) removeActiveJob(job *Job) {
	for i, j := range jt.activeJobs {
		if j == job {
			jt.activeJobs = append(jt.activeJobs[:i], jt.activeJobs[i+1:]...)
			return
		}
	}
}
