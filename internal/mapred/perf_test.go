package mapred

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
)

// TestTrackerPressureZeroAllocs pins the JobTracker's per-placement
// pressure probe to zero allocations: it walks the machine's native and
// per-VM consumers in place rather than copying the lists.
func TestTrackerPressureZeroAllocs(t *testing.T) {
	engine := sim.New(obs.Scope{})
	c := cluster.New(engine, cluster.DefaultConfig(), 1)
	pm := c.AddPM("pm")
	nodes := []cluster.Node{pm}
	for _, name := range []string{"vm-a", "vm-b"} {
		vm, err := c.AddVM(name, pm, 1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, vm)
	}
	for i, n := range nodes {
		for j := 0; j < 3; j++ {
			con := &cluster.Consumer{Name: "t", Demand: resource.NewVector(0.5, 200, float64(10*i+j), 5), Work: 100}
			if err := n.Start(con); err != nil {
				t.Fatal(err)
			}
		}
	}
	jt := NewJobTracker(engine, dfs.New(engine, dfs.Config{}, 1), Config{}, nil)
	tr := jt.AddTracker(nodes[1])
	var p float64
	if allocs := testing.AllocsPerRun(200, func() { p = trackerPressure(tr) }); allocs != 0 {
		t.Errorf("trackerPressure allocates %.1f/op, want 0", allocs)
	}
	if p <= 0 {
		t.Errorf("trackerPressure = %v on a busy machine, want > 0", p)
	}
}
