package cluster

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
)

// warmHost builds a busy host: two native tasks and two VMs of three
// tasks each (one of them memory-capped), every consumer finite so that
// each re-solve also reschedules completions.
func warmHost(tb testing.TB) (*PM, []*Consumer) {
	tb.Helper()
	engine := sim.New(obs.Scope{})
	c := New(engine, DefaultConfig(), 1)
	pm := c.AddPM("pm")
	var nodes []Node
	nodes = append(nodes, pm, pm)
	for _, name := range []string{"vm-a", "vm-b"} {
		vm, err := c.AddVM(name, pm, 1, 1024)
		if err != nil {
			tb.Fatal(err)
		}
		nodes = append(nodes, vm, vm, vm)
	}
	var cons []*Consumer
	for i, n := range nodes {
		con := &Consumer{
			Name:   "t",
			Demand: resource.NewVector(0.6+0.1*float64(i), 300, 20+float64(i), 10),
			Work:   1000,
			Weight: 1 + float64(i%3),
		}
		if i == 4 {
			con.Cap = resource.NewVector(0, 200, 0, 0)
		}
		if err := n.Start(con); err != nil {
			tb.Fatal(err)
		}
		cons = append(cons, con)
	}
	return pm, cons
}

// TestResolvePathZeroAllocs pins the warm re-solve path to zero
// allocations: every consumer mutation on a warmed host (cap, demand and
// weight changes, and a start/stop cycle natively and inside a VM)
// re-solves the two-level kernel and reschedules completions without
// touching the heap.
func TestResolvePathZeroAllocs(t *testing.T) {
	pm, cons := warmHost(t)
	native, guest := cons[0], cons[len(cons)-1]
	vm := guest.Node()
	extra := &Consumer{Name: "extra", Demand: resource.NewVector(1, 100, 5, 5), Work: 50}
	flip := false
	toggle := func(a, b resource.Vector) resource.Vector {
		flip = !flip
		if flip {
			return a
		}
		return b
	}
	cases := []struct {
		name string
		fn   func()
	}{
		{"SetCap", func() { guest.SetCap(toggle(resource.NewVector(0.3, 0, 5, 0), resource.Vector{})) }},
		{"SetDemand", func() {
			native.SetDemand(toggle(resource.NewVector(1.5, 300, 40, 10), resource.NewVector(0.6, 300, 20, 10)))
		}},
		{"SetWeight", func() { guest.SetWeight(3 - guest.Weight) }}, // alternates 1 and 2
		{"StartStop/native", func() {
			if err := pm.Start(extra); err != nil {
				t.Fatal(err)
			}
			extra.Stop()
		}},
		{"StartStop/vm", func() {
			if err := vm.Start(extra); err != nil {
				t.Fatal(err)
			}
			extra.Stop()
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm: the scratch, the engine's freelist, completeFn
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op on a warm host, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkPMResolve measures one two-level re-solve of a host with two
// native tasks and two VMs of three tasks each.
func BenchmarkPMResolve(b *testing.B) {
	pm, _ := warmHost(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.resolve()
	}
}
