package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/resource"
	"repro/internal/trace"
)

// Node is anywhere a Consumer can run: a PM (native or Dom-0 execution)
// or a VM.
type Node interface {
	// Name identifies the node.
	Name() string
	// IsVirtual reports whether the node is a VM.
	IsVirtual() bool
	// Machine returns the physical machine backing the node.
	Machine() *PM
	// Start attaches a consumer to the node and begins executing it.
	Start(c *Consumer) error
	// UsefulCapacity is the node's full-speed capacity in useful units
	// (after virtualization overhead), assuming no contention.
	UsefulCapacity() resource.Vector
	// Consumers returns the consumers currently attached.
	Consumers() []*Consumer
}

var (
	_ Node = (*PM)(nil)
	_ Node = (*VM)(nil)
)

// PM is a physical machine. Consumers started directly on a PM run
// natively (or in Dom-0 if a Dom-0 overhead profile is installed); VMs
// hosted by the PM contend with them under the two-level fair-share
// kernel.
type PM struct {
	name           string
	cluster        *Cluster
	capacity       resource.Vector
	nativeOverhead OverheadProfile
	vms            []*VM
	native         []*Consumer
	off            bool
	rack           string
	powerDomain    string

	rawUsage   resource.Vector // current total raw allocation, for accounting
	lastSettle time.Duration
	slowdown   float64 // injected straggler factor; <= 1 means full speed

	watchers []func() // notified after every update(); see Watch

	offSpan trace.Span // open while the PM is powered off
}

// Name returns the PM's name.
func (pm *PM) Name() string { return pm.name }

// IsVirtual reports false: a PM is bare metal.
func (pm *PM) IsVirtual() bool { return false }

// Machine returns the PM itself.
func (pm *PM) Machine() *PM { return pm }

// Cluster returns the cluster the PM belongs to.
func (pm *PM) Cluster() *Cluster { return pm.cluster }

// Capacity returns the raw hardware capacity.
func (pm *PM) Capacity() resource.Vector { return pm.capacity }

// UsefulCapacity returns capacity scaled by the native overhead profile
// (identity for bare metal, slightly less for Dom-0 mode).
func (pm *PM) UsefulCapacity() resource.Vector {
	v := pm.capacity
	v = v.Set(resource.CPU, v.Get(resource.CPU)*pm.nativeOverhead.CPU)
	v = v.Set(resource.DiskIO, v.Get(resource.DiskIO)*pm.nativeOverhead.Disk)
	v = v.Set(resource.NetIO, v.Get(resource.NetIO)*pm.nativeOverhead.Net)
	return v
}

// SetDom0Mode switches direct execution on this PM between bare metal
// (false) and Xen privileged-domain mode (true), which carries the small
// Dom-0 overhead the paper measures in Figure 2(c).
func (pm *PM) SetDom0Mode(enabled bool) {
	pm.settle()
	if enabled {
		pm.nativeOverhead = Dom0Overhead()
	} else {
		pm.nativeOverhead = NoOverhead()
	}
	pm.update()
}

// VMs returns the VMs currently hosted on this PM.
func (pm *PM) VMs() []*VM {
	out := make([]*VM, len(pm.vms))
	copy(out, pm.vms)
	return out
}

// Consumers returns the native consumers attached directly to the PM.
func (pm *PM) Consumers() []*Consumer {
	out := make([]*Consumer, len(pm.native))
	copy(out, pm.native)
	return out
}

// Start begins executing a consumer natively on the PM.
func (pm *PM) Start(c *Consumer) error {
	if c == nil {
		return fmt.Errorf("cluster: %s: Start(nil)", pm.name)
	}
	if c.state == consumerRunning {
		return fmt.Errorf("cluster: %s: consumer %q already running on %s", pm.name, c.Name, c.node.Name())
	}
	if pm.off {
		return fmt.Errorf("cluster: %s: powered off", pm.name)
	}
	pm.settle()
	c.state = consumerRunning
	c.node = pm
	c.host = pm
	c.vm = nil
	c.remaining = c.Work
	c.lastSettle = pm.cluster.engine.Now()
	pm.native = append(pm.native, c)
	pm.update()
	return nil
}

// PowerOff turns the PM off. It fails if any consumer or VM is still
// present, because powering off busy hardware is an operator error the
// scheduler must never make.
func (pm *PM) PowerOff() error {
	if len(pm.native) > 0 || len(pm.vms) > 0 {
		return fmt.Errorf("cluster: %s: cannot power off with %d consumers and %d VMs",
			pm.name, len(pm.native), len(pm.vms))
	}
	pm.off = true
	pm.cluster.mPowerTransitions.Inc()
	pm.cluster.ts.Add("cluster.pm.power_transitions", "", pm.cluster.engine.Now(), 1)
	if tr := pm.cluster.tracer; tr != nil {
		tr.Instant(pm.name, "power", "power-off")
		pm.offSpan = tr.Begin(pm.name, "power", "powered-off")
	}
	return nil
}

// PowerOn turns the PM back on.
func (pm *PM) PowerOn() {
	if pm.off {
		pm.cluster.mPowerTransitions.Inc()
		pm.cluster.ts.Add("cluster.pm.power_transitions", "", pm.cluster.engine.Now(), 1)
		if tr := pm.cluster.tracer; tr != nil {
			tr.Instant(pm.name, "power", "power-on")
		}
		pm.offSpan.End()
		pm.offSpan = trace.Span{}
	}
	pm.off = false
}

// Off reports whether the PM is powered off.
func (pm *PM) Off() bool { return pm.off }

// SetSlowdown installs a degradation factor on the machine: every
// consumer — native and inside every hosted VM — progresses factor
// times slower than its fair-share allocation would allow. The fault
// injector uses it to model stragglers (failing disks, background
// scrubs, noisy neighbours outside the model) that slow a node without
// killing it. A factor of 1 or less restores full speed.
func (pm *PM) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	if factor == pm.Slowdown() {
		return
	}
	pm.settle()
	pm.slowdown = factor
	pm.update()
	if tr := pm.cluster.tracer; tr != nil {
		tr.Instant(pm.name, "fault", "slowdown", trace.F("factor", factor))
	}
}

// Slowdown returns the installed degradation factor (1 = full speed).
func (pm *PM) Slowdown() float64 {
	if pm.slowdown < 1 {
		return 1
	}
	return pm.slowdown
}

// Utilization returns the PM's current raw usage divided by capacity,
// per resource dimension, each in [0, 1].
func (pm *PM) Utilization() resource.Vector {
	u := pm.rawUsage.Div(pm.capacity)
	one := resource.NewVector(1, 1, 1, 1)
	return u.Min(one)
}

// PowerW returns the instantaneous power draw under the linear model
// P(u_cpu) = idle + (peak-idle) * u_cpu; 0 when powered off.
func (pm *PM) PowerW() float64 {
	if pm.off {
		return 0
	}
	cfg := pm.cluster.cfg
	return cfg.PowerIdleW + (cfg.PowerPeakW-cfg.PowerIdleW)*pm.Utilization().Get(resource.CPU)
}

// EachConsumer calls fn for every consumer on the machine: the native
// ones first, then each hosted VM's in hosting order. Unlike Consumers and
// VMs it copies nothing; fn must not start, stop or move consumers.
func (pm *PM) EachConsumer(fn func(c *Consumer)) {
	for _, c := range pm.native {
		fn(c)
	}
	for _, vm := range pm.vms {
		for _, c := range vm.consumers {
			fn(c)
		}
	}
}

// EachVM calls fn for every hosted VM in hosting order without copying
// the list; fn must not add, remove or migrate VMs.
func (pm *PM) EachVM(fn func(vm *VM)) {
	for _, vm := range pm.vms {
		fn(vm)
	}
}

// settle integrates every consumer's progress at the current speeds up to
// the present instant. It must run before any state change that affects
// allocations.
func (pm *PM) settle() {
	now := pm.cluster.engine.Now()
	pm.EachConsumer(func(c *Consumer) {
		if c.Work < 0 {
			c.lastSettle = now
			return
		}
		dt := (now - c.lastSettle).Seconds()
		if dt > 0 && c.speed > 0 {
			c.remaining -= dt * c.speed
			if c.remaining < 0 {
				c.remaining = 0
			}
		}
		c.lastSettle = now
	})
	pm.lastSettle = now
}

// Watch registers a callback invoked after every re-solve of this PM's
// allocation (consumer attach/detach, demand/cap/weight change, VM
// arrival/departure, power or slowdown transitions, failure). Schedulers
// use it to invalidate cached per-machine state instead of rescanning the
// fleet. Callbacks must not mutate cluster state; they run synchronously
// on the simulation goroutine, so ordering is deterministic.
func (pm *PM) Watch(fn func()) {
	pm.watchers = append(pm.watchers, fn)
}

// update re-solves the two-level fair-share allocation and reschedules
// completion events. Callers must settle first (update settles again
// defensively; settling twice at the same instant is a no-op).
func (pm *PM) update() {
	pm.settle()
	pm.resolve()
	pm.reschedule()
	for _, fn := range pm.watchers {
		fn()
	}
}

// group is one top-level claimant in PM.resolve: a native consumer, or a
// running VM together with its members.
type group struct {
	members  []*Consumer
	vm       *VM // nil for native
	overhead OverheadProfile
	inflate  resource.Vector
	weight   float64
	cap      resource.Vector
	memCap   float64 // memory available to members
	rawOff   int     // first of the members' entries in resolveScratch.rawDemands
}

// resolveScratch holds the working buffers of PM.resolve. A Cluster owns
// one set for all its PMs: resolve runs no callbacks (watchers fire only
// after it returns), so no resolve can start while another is using the
// buffers. One set per PM would pin the buffers of every machine at once.
type resolveScratch struct {
	solver resource.Solver

	groups       []group
	groupDemand  []resource.Vector
	groupWeights []float64
	groupCaps    []resource.Vector
	groupAlloc   []resource.Vector
	rawDemands   []resource.Vector // every group's members, back to back

	memberWeights []float64
	memberCaps    []resource.Vector
	memberAlloc   []resource.Vector
	selfPenalty   []float64
}

// resolve computes allocations and speeds for every consumer on the PM.
func (pm *PM) resolve() {
	cfg := pm.cluster.cfg
	sc := &pm.cluster.scratch

	// Count VMs actively demanding disk and network I/O: the Dom-0
	// backend bottleneck penalizes concurrent virtual I/O streams.
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

	hostMem := pm.capacity.Get(resource.Memory)
	var vmReserved float64
	for _, vm := range pm.vms {
		vmReserved += vm.memMB
	}
	nativeMem := hostMem - vmReserved
	if nativeMem < 0 {
		nativeMem = 0
	}

	// Top level: one group per native consumer plus one per VM.
	groups := sc.groups[:0]
	for i, c := range pm.native {
		groups = append(groups, group{
			members:  pm.native[i : i+1 : i+1],
			overhead: pm.nativeOverhead,
			inflate:  resource.NewVector(1, 1, 1, 1),
			weight:   effWeight(c.Weight),
			memCap:   nativeMem,
		})
	}
	for _, vm := range pm.vms {
		if vm.state != VMRunning || len(vm.consumers) == 0 {
			// Paused/migrating VMs and empty VMs get no CPU/IO share;
			// their consumers' speeds are zeroed below.
			continue
		}
		g := group{
			members:  vm.consumers,
			vm:       vm,
			overhead: vm.overhead,
			inflate:  resource.NewVector(1, 1, diskInflate, netInflate),
			weight:   vm.weight,
			memCap:   vm.memMB,
		}
		g.cap = resource.NewVector(float64(vm.vcpus), vm.memMB, 0, 0)
		if vm.capIO.Get(resource.DiskIO) > 0 {
			g.cap = g.cap.Set(resource.DiskIO, vm.capIO.Get(resource.DiskIO))
		}
		if vm.capIO.Get(resource.NetIO) > 0 {
			g.cap = g.cap.Set(resource.NetIO, vm.capIO.Get(resource.NetIO))
		}
		if vm.capIO.Get(resource.CPU) > 0 && vm.capIO.Get(resource.CPU) < g.cap.Get(resource.CPU) {
			g.cap = g.cap.Set(resource.CPU, vm.capIO.Get(resource.CPU))
		}
		groups = append(groups, g)
	}
	sc.groups = groups

	// Raw (host-level) demand of each member: useful demand divided by
	// efficiency, inflated by cross-VM I/O contention.
	groupDemand := grow(sc.groupDemand, len(groups))
	groupWeights := grow(sc.groupWeights, len(groups))
	groupCaps := grow(sc.groupCaps, len(groups))
	sc.groupDemand, sc.groupWeights, sc.groupCaps = groupDemand, groupWeights, groupCaps
	rawDemands := sc.rawDemands[:0]
	for gi := range groups {
		g := &groups[gi]
		g.rawOff = len(rawDemands)
		var total resource.Vector
		for _, c := range g.members {
			raw := rawDemand(c.Demand, g.overhead, g.inflate)
			rawDemands = append(rawDemands, raw)
			total = total.Add(raw)
		}
		// A VM reserves its full memory on the host regardless of usage.
		if g.vm != nil {
			total = total.Set(resource.Memory, g.vm.memMB)
		}
		groupDemand[gi] = total
		groupWeights[gi] = g.weight
		groupCaps[gi] = g.cap
	}
	sc.rawDemands = rawDemands
	// Seek thrashing: an oversubscribed disk loses sequential bandwidth
	// to head movement between competing streams.
	solveCap := pm.capacity
	diskCap := solveCap.Get(resource.DiskIO)
	var totalDisk float64
	for _, gd := range groupDemand {
		totalDisk += gd.Get(resource.DiskIO)
	}
	if diskCap > 0 && totalDisk > diskCap {
		// Quadratic ramp: slight oversubscription costs almost nothing
		// (the elevator scheduler merges nearly-sequential streams),
		// heavy oversubscription converges to the thrash floor.
		over := totalDisk/diskCap - 1
		divisor := 1 + cfg.DiskSeekOverloadFactor*over*over
		if divisor > cfg.DiskSeekMaxPenalty {
			divisor = cfg.DiskSeekMaxPenalty
		}
		solveCap = solveCap.Set(resource.DiskIO, diskCap/divisor)
	}
	groupAlloc := sc.solver.ShareVector(sc.groupAlloc, solveCap, groupDemand, groupWeights, groupCaps)
	sc.groupAlloc = groupAlloc

	// Second level: members share their group's allocation.
	var totalRaw resource.Vector
	for gi := range groups {
		g := &groups[gi]
		n := len(g.members)
		weights := grow(sc.memberWeights, n)
		caps := grow(sc.memberCaps, n)
		selfPenalty := grow(sc.selfPenalty, n)
		sc.memberWeights, sc.memberCaps, sc.selfPenalty = weights, caps, selfPenalty
		for mi, c := range g.members {
			weights[mi] = effWeight(c.Weight)
			caps[mi] = resource.Vector{}
			if c.Cap != (resource.Vector{}) { // the common uncapped case converts to zero
				caps[mi] = rawDemand(c.Cap, g.overhead, g.inflate)
			}
		}
		memberAlloc := sc.solver.ShareVector(sc.memberAlloc, groupAlloc[gi],
			rawDemands[g.rawOff:g.rawOff+n], weights, caps)
		sc.memberAlloc = memberAlloc

		// Memory pressure inside the container: overcommit causes
		// thrashing that slows every memory-using member. A consumer
		// with a memory cap below its demand pages on its own (self
		// penalty) but relieves the container.
		var memDemand float64
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
			c.alloc = useful
			c.speed = progressSpeed(c.Demand, useful)
			if c.Demand.Get(resource.Memory) > 0 {
				c.speed *= memPenalty * selfPenalty[mi]
			}
		}
	}

	// An injected straggler factor slows every consumer on the machine
	// below what its allocation would sustain.
	if pm.slowdown > 1 {
		pm.EachConsumer(func(c *Consumer) {
			c.speed /= pm.slowdown
		})
	}

	// Consumers on paused or migrating VMs are frozen.
	for _, vm := range pm.vms {
		if vm.state == VMRunning {
			continue
		}
		for _, c := range vm.consumers {
			c.alloc = resource.Vector{}
			c.speed = 0
		}
		totalRaw = totalRaw.Set(resource.Memory,
			totalRaw.Get(resource.Memory)+vm.memMB)
	}
	pm.rawUsage = totalRaw

	// The scratch outlives this call: drop its references to consumers
	// and VMs.
	clear(groups)
}

// reschedule cancels and re-creates the completion event of every finite
// consumer, using the freshly computed speeds.
func (pm *PM) reschedule() {
	engine := pm.cluster.engine
	pm.EachConsumer(func(c *Consumer) {
		if c.completion != nil {
			engine.Cancel(c.completion)
			c.completion = nil
		}
		if c.Work < 0 || c.state != consumerRunning {
			return
		}
		if c.speed <= 0 {
			return // stalled: a future update will reschedule
		}
		if c.completeFn == nil {
			c.completeFn = c.complete // bound once: a method value allocates
		}
		c.completion = engine.AfterSeconds(c.remaining/c.speed, c.completeFn)
	})
}

// rawDemand converts a useful demand vector into host-level raw demand
// under an overhead profile and I/O contention inflation. Zero components
// stay zero, so Cap vectors pass through correctly.
func rawDemand(d resource.Vector, o OverheadProfile, inflate resource.Vector) resource.Vector {
	return resource.NewVector(
		d.Get(resource.CPU)/o.CPU*inflate.Get(resource.CPU),
		d.Get(resource.Memory),
		d.Get(resource.DiskIO)/o.Disk*inflate.Get(resource.DiskIO),
		d.Get(resource.NetIO)/o.Net*inflate.Get(resource.NetIO),
	)
}

// usefulAlloc converts a raw host allocation back into useful units.
func usefulAlloc(a resource.Vector, o OverheadProfile, inflate resource.Vector) resource.Vector {
	return resource.NewVector(
		a.Get(resource.CPU)*o.CPU/inflate.Get(resource.CPU),
		a.Get(resource.Memory),
		a.Get(resource.DiskIO)*o.Disk/inflate.Get(resource.DiskIO),
		a.Get(resource.NetIO)*o.Net/inflate.Get(resource.NetIO),
	)
}

// progressSpeed is the Leontief rate: the minimum allocation/demand ratio
// over the rate dimensions the consumer actually uses.
func progressSpeed(demand, alloc resource.Vector) float64 {
	speed := 1.0
	for _, k := range [...]resource.Kind{resource.CPU, resource.DiskIO, resource.NetIO} {
		d := demand.Get(k)
		if d <= 0 {
			continue
		}
		r := alloc.Get(k) / d
		if r < speed {
			speed = r
		}
	}
	if speed < 0 {
		return 0
	}
	return speed
}

func effWeight(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return w
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// grow returns buf resliced to length n, reallocating only when its
// capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
