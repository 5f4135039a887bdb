package cluster

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Topology support: every PM can carry a rack label and a power-domain
// label, and the cluster can suffer heal-able network partitions that
// isolate a set of machines from the rest. Racks model top-of-rack
// switches and shared chassis (a rack crash kills its members together),
// power domains model PDUs/circuits that cross-cut racks, and network
// partitions split heartbeats and DFS traffic without stopping the
// machines — exactly the correlated-failure regimes that independent
// single-machine chaos never exercises.
//
// Everything here is optional: a cluster with no topology assigned has
// every PM in the anonymous rack "" and no partitions, and all the
// topology-aware consumers (DFS placement, JobTracker health, migration
// retry) behave exactly as before.

// Rack returns the PM's rack label ("" when no topology was assigned).
func (pm *PM) Rack() string { return pm.rack }

// PowerDomain returns the PM's power-domain label ("" when no topology
// was assigned).
func (pm *PM) PowerDomain() string { return pm.powerDomain }

// SetRack assigns the PM to a named rack.
func (pm *PM) SetRack(name string) {
	pm.rack = name
	pm.cluster.topoEpoch++
}

// SetPowerDomain assigns the PM to a named power domain.
func (pm *PM) SetPowerDomain(name string) { pm.powerDomain = name }

// StripeTopology assigns the given PMs to racks and power domains:
// racks take contiguous runs (machines in one rack are physically
// adjacent, as a top-of-rack switch implies), while power domains
// stripe round-robin so they cross-cut racks (a PDU typically feeds one
// machine per chassis row). Either count may be zero to leave that
// dimension unassigned. Rack r gets PMs [r*n/racks, (r+1)*n/racks).
func StripeTopology(pms []*PM, racks, powerDomains int) {
	n := len(pms)
	if n == 0 {
		return
	}
	for i, pm := range pms {
		if racks > 0 {
			pm.rack = fmt.Sprintf("rack-%d", i*racks/n)
			pm.cluster.topoEpoch++
		}
		if powerDomains > 0 {
			pm.powerDomain = fmt.Sprintf("pd-%d", i%powerDomains)
		}
	}
}

// Racks returns the distinct rack labels in use, sorted. The anonymous
// rack "" is excluded.
func (c *Cluster) Racks() []string {
	return c.distinctLabels(func(pm *PM) string { return pm.rack })
}

// PowerDomains returns the distinct power-domain labels in use, sorted.
func (c *Cluster) PowerDomains() []string {
	return c.distinctLabels(func(pm *PM) string { return pm.powerDomain })
}

func (c *Cluster) distinctLabels(get func(*PM) string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, pm := range c.pms {
		if l := get(pm); l != "" && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// PMsInRack returns the members of a rack in provisioning order.
func (c *Cluster) PMsInRack(name string) []*PM {
	var out []*PM
	for _, pm := range c.pms {
		if pm.rack == name && name != "" {
			out = append(out, pm)
		}
	}
	return out
}

// PMsInPowerDomain returns the members of a power domain in
// provisioning order.
func (c *Cluster) PMsInPowerDomain(name string) []*PM {
	var out []*PM
	for _, pm := range c.pms {
		if pm.powerDomain == name && name != "" {
			out = append(out, pm)
		}
	}
	return out
}

// Partition is a heal-able network split: the isolated machines keep
// running (the sim clock does not stop for them) but cannot exchange
// heartbeats, DFS traffic or migration streams with the rest of the
// cluster. The control plane (JobTracker, NameNode) is modeled as
// living on the majority side, so isolated machines look lost to it
// until Heal.
type Partition struct {
	cluster  *Cluster
	isolated map[*PM]bool
	healed   bool
}

// PartitionNetwork splits the network: the given machines become
// unreachable from everything outside the set (machines within the set
// still reach each other). In-flight migrations crossing the cut are
// aborted with destination-failure semantics: the VM stays on its
// source and the migration retries with backoff, which keeps backing
// off until the partition heals. Returns a handle whose Heal restores
// connectivity; partitions may overlap.
func (c *Cluster) PartitionNetwork(pms []*PM) *Partition {
	p := &Partition{cluster: c, isolated: make(map[*PM]bool, len(pms))}
	names := make([]string, 0, len(pms))
	for _, pm := range pms {
		if pm != nil {
			p.isolated[pm] = true
			names = append(names, pm.name)
		}
	}
	c.partitions = append(c.partitions, p)
	if c.tracer != nil {
		c.tracer.Instant("network", "fault", "partition",
			trace.S("isolated", fmt.Sprintf("%v", names)))
	}
	c.auditLog.Add("cluster", "net-partition", fmt.Sprintf("%v", names),
		"isolated", fmt.Sprintf("%d machine(s) cut off from the control plane", len(names)))
	// Unwind migrations whose stream now crosses the cut. The VM keeps
	// running on its source; the retry backs off until connectivity is
	// restored.
	pending := make([]*migration, len(c.migrations))
	copy(pending, c.migrations)
	for _, m := range pending {
		if c.Reachable(m.src, m.dst) {
			continue
		}
		c.detachMigration(m)
		c.mMigrationsAborted.Inc()
		m.span.End(trace.S("outcome", "aborted"), trace.S("cause", "network-partition"))
		c.auditLog.Add("cluster", "migrate-abort", m.vm.name, "stay on "+m.src.name,
			fmt.Sprintf("network partition cut the stream to %s; retry with backoff", m.dst.name))
		m.src.settle()
		if m.inBlackout {
			m.src.vms = append(m.src.vms, m.vm)
		}
		m.vm.state = VMRunning
		m.src.update()
		c.scheduleMigrationRetry(m.vm, m.dst, m.done, m.retries)
	}
	return p
}

// Heal removes the partition; machines on both sides see each other
// again. Healing twice is a no-op.
func (p *Partition) Heal() {
	if p == nil || p.healed {
		return
	}
	p.healed = true
	c := p.cluster
	for i, x := range c.partitions {
		if x == p {
			c.partitions = append(c.partitions[:i], c.partitions[i+1:]...)
			break
		}
	}
	names := make([]string, 0, len(p.isolated))
	for pm := range p.isolated {
		names = append(names, pm.name)
	}
	sort.Strings(names)
	if c.tracer != nil {
		c.tracer.Instant("network", "fault", "partition-heal",
			trace.S("isolated", fmt.Sprintf("%v", names)))
	}
	c.auditLog.Add("cluster", "net-heal", fmt.Sprintf("%v", names),
		"reconnected", "network partition healed")
}

// Healed reports whether the partition has been healed.
func (p *Partition) Healed() bool { return p == nil || p.healed }

// Reachable reports whether two machines can exchange traffic under the
// currently active partitions: for every partition, both must sit on
// the same side of the cut. Nil machines are never reachable.
func (c *Cluster) Reachable(a, b *PM) bool {
	if a == nil || b == nil {
		return false
	}
	for _, p := range c.partitions {
		if p.isolated[a] != p.isolated[b] {
			return false
		}
	}
	return true
}

// Isolated reports whether the machine is cut off from the control
// plane (inside the isolated set of any active partition).
func (c *Cluster) Isolated(pm *PM) bool {
	if pm == nil {
		return false
	}
	for _, p := range c.partitions {
		if p.isolated[pm] {
			return true
		}
	}
	return false
}

// Partitioned reports whether any network partition is currently
// active.
func (c *Cluster) Partitioned() bool { return len(c.partitions) > 0 }

// Isolated reports whether this machine is cut off from the control
// plane by an active network partition.
func (pm *PM) Isolated() bool { return pm.cluster.Isolated(pm) }
