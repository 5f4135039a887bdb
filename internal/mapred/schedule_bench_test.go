package mapred

import (
	"fmt"
	"testing"
)

// stackScheduler hands out pending tasks from a stack the caller fills,
// so a benchmark times the JobTracker's own work (free-slot index,
// pressure refresh, launch) and not a policy's walk over a job's tasks.
type stackScheduler struct{ pending []*Task }

func (s *stackScheduler) Name() string { return "stack" }

func (s *stackScheduler) NextTask(_ *JobTracker, _ *TaskTracker, kind TaskKind) *Task {
	for n := len(s.pending); n > 0; n = len(s.pending) {
		t := s.pending[n-1]
		s.pending = s.pending[:n-1]
		if t.state == TaskPending && t.Kind == kind {
			return t
		}
	}
	return nil
}

// BenchmarkJTSchedule measures one slot cycle on a saturated capacity-
// aware fleet: a running map is killed, its slot returns to the free
// index, and schedule() re-launches the task on the freed tracker. That
// is the per-event JobTracker work of a datacenter-scale run. The free-
// slot index moves a bounded chunk per cycle; what still grows with the
// fleet is the shift of the name-sorted running list.
func BenchmarkJTSchedule(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("trackers=%d", n), func(b *testing.B) {
			sched := &stackScheduler{}
			_, jt := rig(b, n, Config{CapacityAware: true}, sched)
			spec := piLike()
			spec.FixedMapTasks = n * jt.cfg.MapSlots
			job, err := jt.Submit(spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := len(job.maps) - 1; i >= 0; i-- {
				sched.pending = append(sched.pending, job.maps[i])
			}
			jt.schedule()
			if got := jt.RunningCount(); got != len(job.maps) {
				b.Fatalf("%d of %d maps running, want every slot busy", got, len(job.maps))
			}
			cycle := func(i int) {
				a := jt.runningSorted[i%len(jt.runningSorted)]
				sched.pending = append(sched.pending, a.Task)
				a.consumer.Kill()
			}
			cycle(0) // warm: refreshes every pressure the launches dirtied
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(i)
			}
		})
	}
}
