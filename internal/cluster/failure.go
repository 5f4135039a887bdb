package cluster

import (
	"repro/internal/trace"
)

// Fail crashes the physical machine: every native consumer and every
// consumer inside a hosted VM is killed (OnKilled callbacks fire, which
// is how MapReduce learns to re-execute the lost attempts), the VMs are
// destroyed, and the machine powers off. It models the abrupt server
// loss the paper's fault-tolerance arguments lean on.
//
// In-flight live migrations touching the machine are aborted first: a
// VM migrating away dies with its source (the destination discards the
// received pages), while a VM migrating in stays on its still-healthy
// source and the migration retries with backoff. Failing an
// already-off machine is a no-op.
func (pm *PM) Fail() error {
	if pm.off {
		// Already dark: crashing a dead machine changes nothing, and
		// re-counting the power transition or re-opening the
		// powered-off span would corrupt the accounting.
		return nil
	}
	pm.cluster.abortMigrationsFor(pm)
	pm.settle()

	// Collect first: Kill mutates the consumer lists.
	var victims []*Consumer
	victims = append(victims, pm.native...)
	for _, vm := range pm.vms {
		victims = append(victims, vm.consumers...)
	}
	vms := pm.vms
	pm.vms = nil
	pm.off = true
	pm.update()
	pm.cluster.mPowerTransitions.Inc()
	pm.cluster.mPMCrashes.Inc()
	pm.cluster.ts.Add("cluster.pm.power_transitions", "", pm.cluster.engine.Now(), 1)
	if tr := pm.cluster.tracer; tr != nil {
		tr.Instant(pm.name, "power", "failure",
			trace.F("killed_consumers", float64(len(victims))),
			trace.F("destroyed_vms", float64(len(vms))))
		pm.offSpan = tr.Begin(pm.name, "power", "powered-off", trace.S("cause", "failure"))
	}

	for _, c := range victims {
		// Consumers were attached to this PM; Kill routes through the
		// normal detach path and fires OnKilled.
		if c.state == consumerRunning {
			c.Kill()
		}
	}
	// Destroyed VMs are removed from the cluster inventory.
	for _, vm := range vms {
		pm.cluster.vms = removeVM(pm.cluster.vms, vm)
		vm.host = nil
		pm.cluster.topoEpoch++
		vm.state = VMDestroyed
		vm.pauseSpan.End()
		vm.pauseSpan = trace.Span{}
	}
	return nil
}

// Failed reports whether the machine is down (powered off with no way
// back other than PowerOn after repair).
func (pm *PM) Failed() bool { return pm.off }

// Fail crashes a single VM — a guest kernel panic or OOM kill rather
// than a whole-server loss. Its consumers are killed (OnKilled fires, so
// MapReduce re-executes the lost attempts) and the VM is destroyed; the
// host keeps running. Failing an already-destroyed VM is a no-op.
func (vm *VM) Fail() error {
	host := vm.host
	if host == nil {
		return nil
	}
	c := host.cluster
	if vm.state == VMMigrating {
		// The crash ends the migration: neither machine failed, but
		// there is nothing left to move.
		if m := c.migrationOf(vm); m != nil {
			c.detachMigration(m)
			m.span.End(trace.S("outcome", "aborted"), trace.S("cause", "vm-failed"))
			c.mMigrationsAborted.Inc()
		}
	}
	host.settle()
	killed := len(vm.consumers)
	host.vms = removeVM(host.vms, vm)
	host.update()
	c.mVMCrashes.Inc()
	if c.tracer != nil {
		c.tracer.Instant(vm.name, "vm", "crash",
			trace.S("host", host.name),
			trace.F("killed_consumers", float64(killed)))
	}
	c.destroyVM(vm)
	return nil
}

// destroyVM kills the VM's consumers and removes it from the cluster
// inventory. The caller has already detached it from its host's VM list.
func (c *Cluster) destroyVM(vm *VM) {
	victims := make([]*Consumer, len(vm.consumers))
	copy(victims, vm.consumers)
	c.vms = removeVM(c.vms, vm)
	vm.host = nil
	c.topoEpoch++
	vm.state = VMDestroyed
	vm.pauseSpan.End()
	vm.pauseSpan = trace.Span{}
	for _, cons := range victims {
		if cons.state == consumerRunning {
			cons.Kill()
		}
	}
}
