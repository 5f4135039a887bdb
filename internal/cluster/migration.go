package cluster

import (
	"fmt"
	"time"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MigrationStats reports the outcome of a live VM migration.
type MigrationStats struct {
	// VM is the migrated VM's name.
	VM string
	// From and To are the source and destination PMs.
	From, To string
	// TotalTime is the wall time from start to the VM running on the
	// destination.
	TotalTime time.Duration
	// Downtime is the stop-and-copy blackout at the end of pre-copy.
	Downtime time.Duration
	// TransferredMB is the total data moved, including re-sent dirty
	// pages.
	TransferredMB float64
}

// migration tracks one in-flight live migration so that a machine
// failure mid-transfer can be unwound instead of dangling.
type migration struct {
	vm       *VM
	src, dst *PM
	stream   *Consumer  // pre-copy transfer riding on the source
	attachEv *sim.Event // pending stop-and-copy attach on the destination
	span     trace.Span
	done     func(MigrationStats)
	retries  int
	// inBlackout is true once pre-copy finished and the VM is detached
	// from the source, frozen for the final stop-and-copy.
	inBlackout bool
}

// Migrate live-migrates a VM to a destination PM using a pre-copy model:
// iterative rounds re-send pages dirtied during the previous round, until
// the residual set is small enough for a brief stop-and-copy. The transfer
// occupies network bandwidth on both PMs for its duration (so migrations
// of busy Hadoop VMs contend with shuffle traffic exactly as the paper's
// Figure 10 observes), and the VM freezes for the computed downtime before
// resuming on the destination. The callback, if non-nil, receives the
// stats when the VM is running again.
//
// If the source fails mid-migration the VM dies with it; if the
// destination fails, the VM keeps running on the source and the
// migration retries with exponential backoff (see Config's
// MigrationRetryBackoff and MigrationMaxRetries).
func (c *Cluster) Migrate(vm *VM, dst *PM, done func(MigrationStats)) error {
	return c.migrate(vm, dst, done, 0)
}

func (c *Cluster) migrate(vm *VM, dst *PM, done func(MigrationStats), retries int) error {
	if vm == nil || dst == nil {
		return fmt.Errorf("cluster: Migrate: nil vm or destination")
	}
	src := vm.host
	if src == nil {
		return fmt.Errorf("cluster: Migrate(%s): VM destroyed", vm.name)
	}
	if src == dst {
		return fmt.Errorf("cluster: Migrate(%s): already on %s", vm.name, dst.name)
	}
	if dst.off {
		return fmt.Errorf("cluster: Migrate(%s): destination %s is powered off", vm.name, dst.name)
	}
	if !c.Reachable(src, dst) {
		return fmt.Errorf("cluster: Migrate(%s): destination %s unreachable (network partition)", vm.name, dst.name)
	}
	if vm.state == VMMigrating {
		return fmt.Errorf("cluster: Migrate(%s): already migrating", vm.name)
	}
	var committed float64
	for _, other := range dst.vms {
		committed += other.memMB
	}
	if committed+vm.memMB > dst.capacity.Get(resource.Memory) {
		return fmt.Errorf("cluster: Migrate(%s): destination %s memory exhausted", vm.name, dst.name)
	}

	cfg := c.cfg
	activity := vm.activityLevel()
	dirtyMBps := cfg.MigrationDirtyFactor * activity

	// Pre-copy rounds at nominal bandwidth. The actual elapsed time
	// stretches under network contention because the transfer runs as a
	// normal consumer.
	bw := cfg.NetMBps * 0.8 // migration stream won't saturate the NIC
	residual := vm.memMB
	transferred := 0.0
	rounds := 0
	for residual > cfg.MigrationStopCopyMB && rounds < 30 {
		transferred += residual
		roundTime := residual / bw
		residual = dirtyMBps * roundTime
		rounds++
		if dirtyMBps >= bw {
			// Dirtying faster than copying: pre-copy cannot converge;
			// stop after this round.
			break
		}
	}
	transferred += residual
	// Stop-and-copy blackout plus a fixed suspend/resume cost, with
	// deterministic seeded jitter reflecting the paper's observation that
	// downtime varies widely for loaded Hadoop VMs.
	jitter := 1 + (c.rng.Float64()-0.5)*0.6*minf(activity*2, 1)
	downtimeSec := (residual/bw + 0.08 + 0.25*activity) * jitter

	vmName, srcName, dstName := vm.name, src.name, dst.name
	startAt := c.engine.Now()

	var span trace.Span
	if c.tracer != nil {
		span = c.tracer.Begin(vmName, "migration", "migrate",
			trace.S("from", srcName),
			trace.S("to", dstName),
			trace.F("rounds", float64(rounds)),
			trace.F("dirty_mbps", dirtyMBps))
	}

	src.settle()
	vm.state = VMMigrating
	src.update()

	m := &migration{vm: vm, src: src, dst: dst, span: span, done: done, retries: retries}
	stream := &Consumer{
		Name:   fmt.Sprintf("migrate:%s", vmName),
		Demand: resource.NewVector(0.05, 0, 0, bw),
		Work:   transferred / bw,
	}
	m.stream = stream
	stream.OnComplete = func() {
		// Pre-copy finished: detach from source, blackout, attach to
		// destination.
		src.settle()
		src.vms = removeVM(src.vms, vm)
		src.update()
		m.inBlackout = true
		if c.tracer != nil {
			c.tracer.Instant(vmName, "migration", "stop-and-copy",
				trace.F("downtime_sec", downtimeSec),
				trace.F("residual_mb", residual))
		}
		m.attachEv = c.engine.AfterSeconds(downtimeSec, func() {
			// The firing event is recycled by the engine; drop the handle
			// so nothing can Cancel it after the fact.
			m.attachEv = nil
			c.migrations = removeMigration(c.migrations, m)
			dst.settle()
			vm.host = dst
			c.topoEpoch++
			for _, cons := range vm.consumers {
				cons.host = dst
			}
			dst.vms = append(dst.vms, vm)
			vm.state = VMRunning
			dst.update()
			if c.inv != nil {
				c.inv.MigrationCommitted(vm, src, dst)
			}
			span.End(trace.F("transferred_mb", transferred))
			c.mMigrations.Inc()
			c.mMigrationDowntime.Observe(downtimeSec)
			c.ts.Add("cluster.migrations", "", c.engine.Now(), 1)
			c.auditLog.Add("cluster", "migrate-done", vmName, "running on "+dstName,
				fmt.Sprintf("moved %.0f MB in %.1fs, %.2fs downtime",
					transferred, (c.engine.Now()-startAt).Seconds(), downtimeSec))
			if done != nil {
				done(MigrationStats{
					VM:            vmName,
					From:          srcName,
					To:            dstName,
					TotalTime:     c.engine.Now() - startAt,
					Downtime:      sim.DurationFromSeconds(downtimeSec),
					TransferredMB: transferred,
				})
			}
		})
	}
	if err := src.Start(stream); err != nil {
		vm.state = VMRunning
		src.update()
		span.End(trace.S("error", err.Error()))
		return fmt.Errorf("cluster: Migrate(%s): %w", vmName, err)
	}
	c.migrations = append(c.migrations, m)
	c.auditLog.Add("cluster", "migrate-start", vmName, "pre-copy to "+dstName,
		fmt.Sprintf("from %s: %d pre-copy round(s), %.0f MB to move, ~%.2fs stop-and-copy blackout",
			srcName, rounds, transferred, downtimeSec))
	return nil
}

// migrationOf returns the in-flight migration of vm, if any.
func (c *Cluster) migrationOf(vm *VM) *migration {
	for _, m := range c.migrations {
		if m.vm == vm {
			return m
		}
	}
	return nil
}

// detachMigration removes a migration from the registry and silences its
// pending machinery (transfer stream, stop-and-copy attach event) without
// deciding the VM's fate — the caller does that.
func (c *Cluster) detachMigration(m *migration) {
	c.migrations = removeMigration(c.migrations, m)
	if m.attachEv != nil {
		c.engine.Cancel(m.attachEv)
		m.attachEv = nil
	}
	if m.stream != nil && m.stream.Running() {
		m.stream.OnComplete = nil
		m.stream.Stop()
	}
}

// abortMigrationsFor unwinds every in-flight migration touching a
// failing machine. PM.Fail calls it before marking the machine off.
func (c *Cluster) abortMigrationsFor(pm *PM) {
	pending := make([]*migration, len(c.migrations))
	copy(pending, c.migrations)
	for _, m := range pending {
		if m.src != pm && m.dst != pm {
			continue
		}
		c.detachMigration(m)
		c.mMigrationsAborted.Inc()
		if m.src == pm {
			// The source crashed: the destination discards the pages it
			// received and the VM dies with the source.
			m.span.End(trace.S("outcome", "aborted"), trace.S("cause", "source-failed"))
			c.auditLog.Add("cluster", "migrate-abort", m.vm.name, "VM lost",
				fmt.Sprintf("source %s failed mid-transfer; the VM dies with it", pm.name))
			if m.inBlackout {
				// Already detached from the source for stop-and-copy, so
				// the failure sweep will not see it; destroy it here.
				c.destroyVM(m.vm)
			}
			// During pre-copy the VM is still in src.vms and the Fail
			// sweep destroys it with the rest.
			continue
		}
		// The destination crashed: the VM keeps running (or resumes, if
		// it was frozen for stop-and-copy) on the source, and the
		// migration retries after a backoff.
		m.span.End(trace.S("outcome", "aborted"), trace.S("cause", "destination-failed"))
		c.auditLog.Add("cluster", "migrate-abort", m.vm.name, "stay on "+m.src.name,
			fmt.Sprintf("destination %s failed mid-transfer; retry with backoff", pm.name))
		m.src.settle()
		if m.inBlackout {
			m.src.vms = append(m.src.vms, m.vm)
		}
		m.vm.state = VMRunning
		m.src.update()
		c.scheduleMigrationRetry(m.vm, m.dst, m.done, m.retries)
	}
}

// scheduleMigrationRetry re-attempts an aborted migration after an
// exponential backoff, giving up once MigrationMaxRetries is exhausted.
func (c *Cluster) scheduleMigrationRetry(vm *VM, dst *PM, done func(MigrationStats), prevRetries int) {
	if prevRetries >= c.cfg.MigrationMaxRetries {
		if c.tracer != nil {
			c.tracer.Instant(vm.name, "migration", "migration-abandoned",
				trace.S("to", dst.name),
				trace.F("retries", float64(prevRetries)))
		}
		c.auditLog.Add("cluster", "migrate-abandon", vm.name, "give up",
			fmt.Sprintf("%d retries toward %s exhausted", prevRetries, dst.name))
		return
	}
	attempt := prevRetries + 1
	backoff := c.cfg.MigrationRetryBackoff << uint(prevRetries)
	c.mMigrationRetries.Inc()
	c.auditLog.Add("cluster", "migrate-retry", vm.name,
		fmt.Sprintf("retry toward %s in %v", dst.name, backoff),
		fmt.Sprintf("attempt %d of %d, exponential backoff", attempt, c.cfg.MigrationMaxRetries))
	if c.tracer != nil {
		c.tracer.Instant(vm.name, "migration", "migration-retry-scheduled",
			trace.S("to", dst.name),
			trace.F("attempt", float64(attempt)),
			trace.F("backoff_sec", backoff.Seconds()))
	}
	c.engine.After(backoff, func() {
		if vm.host == nil || vm.host == dst || vm.state != VMRunning {
			return // the VM died, landed, or is otherwise occupied
		}
		if dst.off || !c.Reachable(vm.host, dst) {
			// Destination still down or partitioned away: keep backing
			// off until retries run out.
			c.scheduleMigrationRetry(vm, dst, done, attempt)
			return
		}
		if err := c.migrate(vm, dst, done, attempt); err != nil && c.tracer != nil {
			c.tracer.Instant(vm.name, "migration", "migration-abandoned",
				trace.S("to", dst.name),
				trace.S("error", err.Error()))
		}
	})
}

func removeMigration(list []*migration, m *migration) []*migration {
	for i, x := range list {
		if x == m {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func removeVM(list []*VM, vm *VM) []*VM {
	for i, x := range list {
		if x == vm {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
