package cluster

import (
	"fmt"

	"repro/internal/resource"
	"repro/internal/trace"
)

// VMState is the lifecycle state of a virtual machine.
type VMState int

// VM lifecycle states.
const (
	VMRunning VMState = iota + 1
	VMPaused
	VMMigrating
	VMDestroyed
)

// String names the state.
func (s VMState) String() string {
	switch s {
	case VMRunning:
		return "running"
	case VMPaused:
		return "paused"
	case VMMigrating:
		return "migrating"
	case VMDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// VM is a virtual machine hosted on a PM. Consumers inside a VM pay the
// guest virtualization overhead and contend with collocated VMs through
// the host's two-level kernel.
type VM struct {
	name     string
	host     *PM
	vcpus    int
	memMB    float64
	state    VMState
	overhead OverheadProfile
	weight   float64
	capIO    resource.Vector // DRM-installed VM-level caps; zero = uncapped

	consumers []*Consumer

	pauseSpan trace.Span // open while the VM is paused
}

// Name returns the VM's name.
func (vm *VM) Name() string { return vm.name }

// IsVirtual reports true.
func (vm *VM) IsVirtual() bool { return true }

// Machine returns the current physical host.
func (vm *VM) Machine() *PM { return vm.host }

// State returns the lifecycle state.
func (vm *VM) State() VMState { return vm.state }

// VCPUs returns the virtual CPU count.
func (vm *VM) VCPUs() int { return vm.vcpus }

// MemoryMB returns the configured guest memory.
func (vm *VM) MemoryMB() float64 { return vm.memMB }

// UsefulCapacity is the VM's full-speed capacity in useful units under
// its overhead profile, assuming an otherwise idle host.
func (vm *VM) UsefulCapacity() resource.Vector {
	if vm.host == nil {
		return resource.Vector{} // destroyed: no capacity anywhere
	}
	host := vm.host.capacity
	cpu := float64(vm.vcpus)
	if hc := host.Get(resource.CPU); hc < cpu {
		cpu = hc
	}
	return resource.NewVector(
		cpu*vm.overhead.CPU,
		vm.memMB,
		host.Get(resource.DiskIO)*vm.overhead.Disk,
		host.Get(resource.NetIO)*vm.overhead.Net,
	)
}

// Consumers returns the consumers currently attached to the VM.
func (vm *VM) Consumers() []*Consumer {
	out := make([]*Consumer, len(vm.consumers))
	copy(out, vm.consumers)
	return out
}

// EachConsumer calls fn for every attached consumer in attach order
// without copying the list; fn must not start, stop or move consumers.
func (vm *VM) EachConsumer(fn func(c *Consumer)) {
	for _, c := range vm.consumers {
		fn(c)
	}
}

// Start begins executing a consumer inside the VM. Starting work on a
// paused VM is allowed; it simply makes no progress until Resume.
func (vm *VM) Start(c *Consumer) error {
	if c == nil {
		return fmt.Errorf("cluster: %s: Start(nil)", vm.name)
	}
	if c.state == consumerRunning {
		return fmt.Errorf("cluster: %s: consumer %q already running on %s", vm.name, c.Name, c.node.Name())
	}
	if vm.state == VMMigrating {
		return fmt.Errorf("cluster: %s: cannot start work while migrating", vm.name)
	}
	if vm.host == nil {
		return fmt.Errorf("cluster: %s: VM destroyed (host failed)", vm.name)
	}
	pm := vm.host
	pm.settle()
	c.state = consumerRunning
	c.node = vm
	c.host = pm
	c.vm = vm
	c.remaining = c.Work
	c.lastSettle = pm.cluster.engine.Now()
	vm.consumers = append(vm.consumers, c)
	pm.update()
	return nil
}

// Pause freezes the VM: all of its consumers stop progressing and stop
// consuming CPU and I/O (the memory reservation remains). This is one of
// the IPS interference-mitigation actions.
func (vm *VM) Pause() error {
	if vm.host == nil {
		return fmt.Errorf("cluster: %s: VM destroyed", vm.name)
	}
	if vm.state == VMMigrating {
		return fmt.Errorf("cluster: %s: cannot pause while migrating", vm.name)
	}
	if vm.state == VMPaused {
		return nil
	}
	vm.host.settle()
	vm.state = VMPaused
	vm.host.update()
	cl := vm.host.cluster
	cl.mVMPauses.Inc()
	if cl.tracer != nil {
		vm.pauseSpan = cl.tracer.Begin(vm.name, "vm", "paused")
	}
	return nil
}

// Resume unfreezes a paused VM.
func (vm *VM) Resume() error {
	if vm.host == nil {
		return fmt.Errorf("cluster: %s: VM destroyed", vm.name)
	}
	if vm.state == VMMigrating {
		return fmt.Errorf("cluster: %s: cannot resume while migrating", vm.name)
	}
	if vm.state == VMRunning {
		return nil
	}
	vm.host.settle()
	vm.state = VMRunning
	vm.host.update()
	vm.pauseSpan.End()
	vm.pauseSpan = trace.Span{}
	return nil
}

// SetWeight changes the VM's host-level fair-share weight (defaults to
// its vCPU count).
func (vm *VM) SetWeight(w float64) {
	if vm.host == nil {
		return
	}
	vm.host.settle()
	if w <= 0 {
		w = float64(vm.vcpus)
	}
	vm.weight = w
	vm.host.update()
}

// SetCap installs VM-level CPU/disk/network caps (the DRM's coarse
// actuator, akin to Xen's credit scheduler cap plus blkio throttling).
// Zero components remove the corresponding cap.
func (vm *VM) SetCap(cap resource.Vector) {
	if vm.host == nil {
		return
	}
	vm.host.settle()
	vm.capIO = cap
	vm.host.update()
}

// Cap returns the currently installed VM-level cap.
func (vm *VM) Cap() resource.Vector { return vm.capIO }

// activityLevel estimates how busy the VM is, in [0, 1]; it drives the
// dirty-page rate during live migration.
func (vm *VM) activityLevel() float64 {
	if vm.state != VMRunning || len(vm.consumers) == 0 {
		return 0
	}
	level := 0.0
	for _, c := range vm.consumers {
		level += c.speed
	}
	if level > 1 {
		level = 1
	}
	return level
}
