package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestTopologyCacheMatchesScan drives a seeded random mix of every event
// that can move a DataNode to another machine or a machine to another
// rack — VMs added, migrations (checked mid-blackout, after commit and
// after a destination-failure abort), PM crashes, VM crashes, rack
// relabels and DataNode removal — and after every step requires the
// cached rack span and per-machine counts to equal a fresh scan, and
// OffHostFraction to be bit-equal to the full-fleet formula it replaced.
func TestTopologyCacheMatchesScan(t *testing.T) {
	engine := sim.New(obs.Scope{})
	c := cluster.New(engine, cluster.DefaultConfig(), 3)
	fs := New(engine, Config{}, 3)
	rng := rand.New(rand.NewSource(11))

	var nodes []cluster.Node // every node ever made, destroyed VMs included
	addPM := func() *cluster.PM {
		pm := c.AddPM(fmt.Sprintf("pm-%d", len(c.PMs())))
		nodes = append(nodes, pm)
		fs.AddDataNode(pm)
		return pm
	}
	addVM := func() {
		host := c.PMs()[rng.Intn(len(c.PMs()))]
		if host.Failed() {
			return
		}
		vm, err := c.AddVM(fmt.Sprintf("vm-%d", len(nodes)), host, 1, 1024)
		if err != nil {
			return // host memory exhausted
		}
		nodes = append(nodes, vm)
		if rng.Intn(4) > 0 {
			fs.AddDataNode(vm)
		}
	}
	livePMs := func() []*cluster.PM {
		var out []*cluster.PM
		for _, pm := range c.PMs() {
			if !pm.Failed() {
				out = append(out, pm)
			}
		}
		return out
	}

	step := ""
	check := func() {
		t.Helper()
		dns := fs.DataNodes()
		spans := false
		want := make(map[*cluster.PM]int)
		for _, d := range dns {
			want[d.Node().Machine()]++
			if nodeRack(d) != nodeRack(dns[0]) {
				spans = true
			}
		}
		if got := fs.spansRacks(); got != spans {
			t.Fatalf("%s: spansRacks = %v, a scan says %v", step, got, spans)
		}
		got := fs.topology().onMachine
		for _, pm := range append(c.PMs(), nil) {
			if got[pm] != want[pm] {
				name := "no machine"
				if pm != nil {
					name = pm.Name()
				}
				t.Fatalf("%s: cache counts %d DataNodes on %s, a scan counts %d", step, got[pm], name, want[pm])
			}
		}
		for _, n := range nodes {
			scan := 1.0
			if len(dns) > 0 {
				off := 0
				for _, d := range dns {
					if d.Node().Machine() != n.Machine() {
						off++
					}
				}
				scan = float64(off) / float64(len(dns))
			}
			if got := fs.OffHostFraction(n); math.Float64bits(got) != math.Float64bits(scan) {
				t.Fatalf("%s: OffHostFraction(%s) = %v, the scan formula gives %v", step, n.Name(), got, scan)
			}
		}
	}
	// drain runs the engine to idle, checking after every event.
	drain := func() {
		for engine.Step() {
			check()
		}
	}
	inBlackout := func(vm *cluster.VM) bool {
		src := vm.Machine()
		return src != nil && vm.State() == cluster.VMMigrating && !slices.Contains(src.VMs(), vm)
	}

	for i := 0; i < 8; i++ {
		addPM()
	}
	for i := 0; i < 16; i++ {
		addVM()
	}
	step = "setup"
	check()

	var blackouts, commits, aborts int
	for k := 0; k < 400; k++ {
		switch op := rng.Intn(9); op {
		case 0:
			step = "add-vm"
			addVM()
		case 1:
			step = "add-pm"
			addPM()
		case 2, 3: // migrate, to commit or to a destination crash
			step = "migrate"
			var vms []*cluster.VM
			for _, vm := range c.VMs() {
				if vm.State() == cluster.VMRunning {
					vms = append(vms, vm)
				}
			}
			live := livePMs()
			if len(vms) == 0 || len(live) < 2 {
				continue
			}
			vm := vms[rng.Intn(len(vms))]
			dst := live[rng.Intn(len(live))]
			if dst == vm.Machine() || c.Migrate(vm, dst, nil) != nil {
				continue
			}
			for !inBlackout(vm) && engine.Step() {
				check()
			}
			if !inBlackout(vm) {
				t.Fatalf("migration of %s never reached stop-and-copy", vm.Name())
			}
			blackouts++
			step = "mid-blackout"
			check()
			if op == 3 {
				step = "destination-crash"
				if err := dst.Fail(); err != nil {
					t.Fatal(err)
				}
				aborts++
				check()
				step = "destination-crash-repair"
				fs.HandleNodeFailures(nodesOn(nodes, dst))
				check()
			}
			step = "after-migration"
			drain()
			if vm.Machine() == dst {
				commits++
			}
		case 4:
			step = "pm-crash"
			live := livePMs()
			if len(live) < 3 {
				continue
			}
			pm := live[rng.Intn(len(live))]
			doomed := nodesOn(nodes, pm) // before Fail clears the VMs' host
			if err := pm.Fail(); err != nil {
				t.Fatal(err)
			}
			check()
			step = "pm-crash-repair"
			fs.HandleNodeFailures(doomed)
			check()
			step = "pm-crash-drain"
			drain()
		case 5:
			step = "vm-crash"
			vms := c.VMs()
			if len(vms) == 0 {
				continue
			}
			if err := vms[rng.Intn(len(vms))].Fail(); err != nil {
				t.Fatal(err)
			}
		case 6:
			step = "set-rack"
			pms := c.PMs()
			pms[rng.Intn(len(pms))].SetRack([]string{"", "rack-a", "rack-b"}[rng.Intn(3)])
		case 7:
			step = "stripe-topology"
			cluster.StripeTopology(c.PMs(), rng.Intn(3), 0)
		case 8:
			step = "remove-datanode"
			dns := fs.DataNodes()
			if len(dns) < 2 {
				continue
			}
			fs.HandleNodeFailures([]cluster.Node{dns[rng.Intn(len(dns))].Node()})
		}
		check()
	}
	if blackouts == 0 || commits == 0 || aborts == 0 {
		t.Fatalf("sequence covered %d blackouts, %d commits, %d destination aborts; want each > 0",
			blackouts, commits, aborts)
	}
}

// nodesOn returns the nodes currently backed by pm.
func nodesOn(nodes []cluster.Node, pm *cluster.PM) []cluster.Node {
	var out []cluster.Node
	for _, n := range nodes {
		if n.Machine() == pm {
			out = append(out, n)
		}
	}
	return out
}

// BenchmarkDFSCreateFile measures laying out a two-block file on a
// 10k-DataNode fleet, with and without racks. Placement reads the rack
// span and per-machine counts from the topology cache, so its cost should
// not depend on the fleet size.
func BenchmarkDFSCreateFile(b *testing.B) {
	for _, racks := range []int{0, 100} {
		b.Run(fmt.Sprintf("datanodes=10000/racks=%d", racks), func(b *testing.B) {
			_, c, fs, _ := testFS(b, 10000, 0)
			cluster.StripeTopology(c.PMs(), racks, 0)
			create := func() {
				if _, err := fs.CreateFile("/bench", 128, nil); err != nil {
					b.Fatal(err)
				}
				if err := fs.Delete("/bench"); err != nil {
					b.Fatal(err)
				}
			}
			create() // warm: builds the topology cache once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				create()
			}
		})
	}
}
