package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
)

// Property: for any random population of consumers across native
// execution and VMs, the kernel never allocates more than the machine's
// raw capacity in any dimension, never gives a consumer more than its
// demand, and every finite consumer eventually completes.
func TestKernelAllocationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		engine := sim.New(obs.Scope{})
		c := New(engine, DefaultConfig(), seed)
		pm := c.AddPM("pm")
		var vms []*VM
		for i := 0; i < rng.Intn(3); i++ {
			vm, err := c.AddVM("vm", pm, 1, 1024)
			if err != nil {
				return false
			}
			vms = append(vms, vm)
		}
		var consumers []*Consumer
		n := rng.Intn(6) + 1
		for i := 0; i < n; i++ {
			con := &Consumer{
				Name: "c",
				Demand: resource.NewVector(
					rng.Float64()*2,
					rng.Float64()*600,
					rng.Float64()*120,
					rng.Float64()*150,
				),
				Work:   rng.Float64()*50 + 1,
				Weight: rng.Float64()*3 + 0.1,
			}
			var node Node = pm
			if len(vms) > 0 && rng.Intn(2) == 0 {
				node = vms[rng.Intn(len(vms))]
			}
			if err := node.Start(con); err != nil {
				return false
			}
			consumers = append(consumers, con)
		}

		// Mid-run checks at a few instants.
		for _, at := range []time.Duration{time.Second, 5 * time.Second, 20 * time.Second} {
			engine.RunUntil(at)
			var total resource.Vector
			cap := pm.Capacity()
			for _, con := range consumers {
				if !con.Running() {
					continue
				}
				alloc := con.Alloc()
				for _, k := range resource.Kinds() {
					if alloc.Get(k) > con.Demand.Get(k)+1e-6 {
						return false // got more than asked
					}
				}
				total = total.Add(alloc)
			}
			// Useful allocations are below raw capacity by construction
			// (efficiency < 1), so raw capacity bounds them too.
			for _, k := range resource.Kinds() {
				if total.Get(k) > cap.Get(k)+1e-6 {
					return false
				}
			}
		}
		engine.RunUntil(100 * time.Hour)
		for _, con := range consumers {
			if !con.Done() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: work is conserved — a consumer's completion time is never
// earlier than its full-speed duration, regardless of contention.
func TestKernelNoSuperluminalProgress(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		engine := sim.New(obs.Scope{})
		c := New(engine, DefaultConfig(), seed)
		pm := c.AddPM("pm")
		type tracked struct {
			work   float64
			doneAt time.Duration
		}
		results := make([]*tracked, 0, 4)
		n := rng.Intn(4) + 1
		for i := 0; i < n; i++ {
			tr := &tracked{work: rng.Float64()*30 + 0.5}
			con := &Consumer{
				Name:   "c",
				Demand: resource.NewVector(rng.Float64()+0.1, 0, rng.Float64()*50, 0),
				Work:   tr.work,
			}
			con.OnComplete = func() { tr.doneAt = engine.Now() }
			if err := pm.Start(con); err != nil {
				return false
			}
			results = append(results, tr)
		}
		engine.Run()
		for _, tr := range results {
			if tr.doneAt.Seconds() < tr.work-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// refOutcome is what referenceResolve computes for one consumer.
type refOutcome struct {
	alloc resource.Vector
	speed float64
}

// referenceResolve recomputes a PM's two-level allocation the way the
// kernel did before it reused buffers: a fresh group record and fresh
// slices for every solve, through the allocating public ShareVector. It
// reads the PM's state and changes nothing.
func referenceResolve(pm *PM) (map[*Consumer]refOutcome, resource.Vector) {
	cfg := pm.cluster.cfg
	out := make(map[*Consumer]refOutcome)
	kDisk, kNet := 0, 0
	for _, vm := range pm.vms {
		if vm.state != VMRunning {
			continue
		}
		var disk, net float64
		for _, c := range vm.consumers {
			disk += c.Demand.Get(resource.DiskIO)
			net += c.Demand.Get(resource.NetIO)
		}
		if disk > 0 {
			kDisk++
		}
		if net > 0 {
			kNet++
		}
	}
	diskInflate := 1 + cfg.IOContentionPerVM*float64(max(kDisk-1, 0))
	netInflate := 1 + cfg.IOContentionPerVM*float64(max(kNet-1, 0))

	type refGroup struct {
		members    []*Consumer
		vm         *VM
		overhead   OverheadProfile
		inflate    resource.Vector
		weight     float64
		cap        resource.Vector
		memCap     float64
		rawDemands []resource.Vector
	}
	var vmReserved float64
	for _, vm := range pm.vms {
		vmReserved += vm.memMB
	}
	nativeMem := math.Max(pm.capacity.Get(resource.Memory)-vmReserved, 0)
	var groups []*refGroup
	for _, c := range pm.native {
		groups = append(groups, &refGroup{
			members:  []*Consumer{c},
			overhead: pm.nativeOverhead,
			inflate:  resource.NewVector(1, 1, 1, 1),
			weight:   effWeight(c.Weight),
			memCap:   nativeMem,
		})
	}
	for _, vm := range pm.vms {
		if vm.state != VMRunning || len(vm.consumers) == 0 {
			continue
		}
		g := &refGroup{
			members:  append([]*Consumer(nil), vm.consumers...),
			vm:       vm,
			overhead: vm.overhead,
			inflate:  resource.NewVector(1, 1, diskInflate, netInflate),
			weight:   vm.weight,
			memCap:   vm.memMB,
			cap:      resource.NewVector(float64(vm.vcpus), vm.memMB, 0, 0),
		}
		if v := vm.capIO.Get(resource.DiskIO); v > 0 {
			g.cap = g.cap.Set(resource.DiskIO, v)
		}
		if v := vm.capIO.Get(resource.NetIO); v > 0 {
			g.cap = g.cap.Set(resource.NetIO, v)
		}
		if v := vm.capIO.Get(resource.CPU); v > 0 && v < g.cap.Get(resource.CPU) {
			g.cap = g.cap.Set(resource.CPU, v)
		}
		groups = append(groups, g)
	}
	groupDemand := make([]resource.Vector, len(groups))
	groupWeights := make([]float64, len(groups))
	groupCaps := make([]resource.Vector, len(groups))
	for gi, g := range groups {
		var total resource.Vector
		for _, c := range g.members {
			raw := rawDemand(c.Demand, g.overhead, g.inflate)
			g.rawDemands = append(g.rawDemands, raw)
			total = total.Add(raw)
		}
		if g.vm != nil {
			total = total.Set(resource.Memory, g.vm.memMB)
		}
		groupDemand[gi], groupWeights[gi], groupCaps[gi] = total, g.weight, g.cap
	}
	solveCap := pm.capacity
	diskCap := solveCap.Get(resource.DiskIO)
	var totalDisk float64
	for _, gd := range groupDemand {
		totalDisk += gd.Get(resource.DiskIO)
	}
	if diskCap > 0 && totalDisk > diskCap {
		over := totalDisk/diskCap - 1
		divisor := math.Min(1+cfg.DiskSeekOverloadFactor*over*over, cfg.DiskSeekMaxPenalty)
		solveCap = solveCap.Set(resource.DiskIO, diskCap/divisor)
	}
	groupAlloc := resource.ShareVector(solveCap, groupDemand, groupWeights, groupCaps)

	var totalRaw resource.Vector
	for gi, g := range groups {
		weights := make([]float64, len(g.members))
		caps := make([]resource.Vector, len(g.members))
		for mi, c := range g.members {
			weights[mi] = effWeight(c.Weight)
			caps[mi] = rawDemand(c.Cap, g.overhead, g.inflate)
		}
		memberAlloc := resource.ShareVector(groupAlloc[gi], g.rawDemands, weights, caps)
		var memDemand float64
		selfPenalty := make([]float64, len(g.members))
		for mi, c := range g.members {
			use := c.Demand.Get(resource.Memory)
			selfPenalty[mi] = 1
			if capMem := c.Cap.Get(resource.Memory); capMem > 0 && capMem < use {
				selfPenalty[mi] = math.Pow(capMem/use, cfg.MemPenaltyExp)
				use = capMem
			}
			memDemand += use
		}
		memPenalty := 1.0
		if g.memCap > 0 && memDemand > g.memCap {
			memPenalty = math.Pow(g.memCap/memDemand, cfg.MemPenaltyExp)
		}
		for mi, c := range g.members {
			raw := memberAlloc[mi]
			totalRaw = totalRaw.Add(raw)
			useful := usefulAlloc(raw, g.overhead, g.inflate)
			speed := progressSpeed(c.Demand, useful)
			if c.Demand.Get(resource.Memory) > 0 {
				speed *= memPenalty * selfPenalty[mi]
			}
			out[c] = refOutcome{alloc: useful, speed: speed}
		}
	}
	if pm.slowdown > 1 {
		for c, o := range out {
			o.speed /= pm.slowdown
			out[c] = o
		}
	}
	for _, vm := range pm.vms {
		if vm.state == VMRunning {
			continue
		}
		for _, c := range vm.consumers {
			out[c] = refOutcome{}
		}
		totalRaw = totalRaw.Set(resource.Memory, totalRaw.Get(resource.Memory)+vm.memMB)
	}
	return out, totalRaw
}

// randomConsumer draws a consumer with some zero dimensions, optional
// caps (memory caps below demand included) and arbitrary weights.
func randomConsumer(rng *rand.Rand) *Consumer {
	dim := func(scale float64) float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.Float64() * scale
	}
	c := &Consumer{
		Name:   "c",
		Demand: resource.NewVector(dim(2), dim(700), dim(120), dim(150)),
		Work:   rng.Float64()*500 + 1,
		Weight: float64(rng.Intn(4)) * 0.75,
	}
	if rng.Intn(3) == 0 {
		c.Cap = resource.NewVector(dim(1), dim(400), dim(60), dim(60))
	}
	if rng.Intn(6) == 0 {
		c.Work = OpenEnded
	}
	return c
}

// Property: the buffer-reusing kernel gives every consumer the same
// allocation and speed, to the bit, as a reference that solves with
// fresh slices. The hosts mix native tasks, Dom-0 mode, VMs with more
// than twelve members (past the sort's insertion-sort cutoff), capped
// and paused VMs and stragglers; a second PM shares the cluster's
// scratch, and the comparison is repeated after further mutations. A
// group allocation or member buffer overwritten during the nested
// member solves shows up as a mismatch.
func TestResolveMatchesFreshSliceReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		engine := sim.New(obs.Scope{})
		c := New(engine, DefaultConfig(), seed)
		pms := []*PM{c.AddPM("pm-0"), c.AddPM("pm-1")}
		var all []*Consumer
		for _, pm := range pms {
			if rng.Intn(3) == 0 {
				pm.SetDom0Mode(true)
			}
			nodes := []Node{pm}
			for v := 0; v < rng.Intn(4); v++ {
				vm, err := c.AddVM("vm", pm, rng.Intn(2)+1, 1024)
				if err != nil {
					t.Error(err)
					return false
				}
				nodes = append(nodes, vm)
			}
			for _, n := range nodes {
				members := rng.Intn(4)
				if n.IsVirtual() && rng.Intn(2) == 0 {
					members = 13 + rng.Intn(12)
				}
				for i := 0; i < members; i++ {
					con := randomConsumer(rng)
					if err := n.Start(con); err != nil {
						t.Error(err)
						return false
					}
					all = append(all, con)
				}
			}
			for _, vm := range pm.vms {
				if rng.Intn(3) == 0 {
					vm.SetCap(resource.NewVector(rng.Float64()*1.5, 0, rng.Float64()*50, rng.Float64()*50))
				}
				if rng.Intn(4) == 0 {
					if err := vm.Pause(); err != nil {
						t.Error(err)
						return false
					}
				}
			}
			if rng.Intn(3) == 0 {
				pm.SetSlowdown(1 + rng.Float64()*3)
			}
		}
		check := func(when string) bool {
			for _, pm := range pms {
				want, wantRaw := referenceResolve(pm)
				if !sameBits(pm.rawUsage, wantRaw) {
					t.Errorf("seed %d %s: %s raw usage %v, reference %v", seed, when, pm.name, pm.rawUsage, wantRaw)
					return false
				}
				ok := true
				pm.EachConsumer(func(con *Consumer) {
					w, found := want[con]
					if !found || !sameBits(con.alloc, w.alloc) ||
						math.Float64bits(con.speed) != math.Float64bits(w.speed) {
						t.Errorf("seed %d %s: %s consumer alloc %v speed %v, reference %v speed %v",
							seed, when, pm.name, con.alloc, con.speed, w.alloc, w.speed)
						ok = false
					}
				})
				if !ok {
					return false
				}
			}
			return true
		}
		if !check("after set-up") {
			return false
		}
		// Mutate: cap, re-weight and stop random consumers, resume paused
		// VMs, advance time so some complete.
		for round := 0; round < 3 && len(all) > 0; round++ {
			for i := 0; i < 4; i++ {
				con := all[rng.Intn(len(all))]
				switch rng.Intn(3) {
				case 0:
					con.SetCap(resource.NewVector(rng.Float64(), rng.Float64()*300, 0, rng.Float64()*40))
				case 1:
					con.SetWeight(rng.Float64() * 3)
				case 2:
					con.Stop()
				}
			}
			for _, vm := range c.vms {
				if vm.state == VMPaused && rng.Intn(2) == 0 {
					if err := vm.Resume(); err != nil {
						t.Error(err)
						return false
					}
				}
			}
			engine.RunUntil(engine.Now() + time.Duration(rng.Intn(60))*time.Second)
			if !check("after mutation round") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func sameBits(a, b resource.Vector) bool {
	for _, k := range resource.Kinds() {
		if math.Float64bits(a.Get(k)) != math.Float64bits(b.Get(k)) {
			return false
		}
	}
	return true
}
