package cluster

import (
	"time"

	"repro/internal/resource"
	"repro/internal/sim"
)

// OpenEnded marks a Consumer that runs until stopped (interactive
// services, long-lived daemons) rather than completing a fixed amount of
// work.
const OpenEnded = -1.0

// Consumer is a unit of resource consumption: a map/reduce task, a DFS
// transfer, an interactive service, or a migration stream. It declares the
// resource rates it would consume at full speed and the amount of work in
// full-speed seconds; the hosting PM's kernel decides how fast it actually
// progresses.
type Consumer struct {
	// Name identifies the consumer in logs and metrics.
	Name string
	// Demand is the full-speed resource appetite: CPU in cores, Memory in
	// resident MB, DiskIO/NetIO in MB/s.
	Demand resource.Vector
	// Work is the duration in seconds the consumer would run at full
	// speed, or OpenEnded.
	Work float64
	// Weight scales the consumer's share under contention (default 1).
	Weight float64
	// Cap is an externally installed throttle (the DRM's cgroup-style
	// control); zero components mean "uncapped".
	Cap resource.Vector
	// OnComplete fires when the work finishes. It is never called for
	// open-ended consumers.
	OnComplete func()
	// OnKilled fires if the consumer is killed before completing.
	OnKilled func()

	node       Node
	host       *PM
	vm         *VM
	remaining  float64
	lastSettle time.Duration
	alloc      resource.Vector
	speed      float64
	completion *sim.Event
	completeFn func() // c.complete, bound once; see PM.reschedule
	state      consumerState
}

type consumerState int

const (
	consumerIdle consumerState = iota
	consumerRunning
	consumerDone
	consumerKilled
)

// Running reports whether the consumer is attached to a node.
func (c *Consumer) Running() bool { return c.state == consumerRunning }

// Done reports whether the consumer completed its work.
func (c *Consumer) Done() bool { return c.state == consumerDone }

// Killed reports whether the consumer was killed before completing.
func (c *Consumer) Killed() bool { return c.state == consumerKilled }

// Node returns where the consumer runs, or nil.
func (c *Consumer) Node() Node { return c.node }

// Alloc returns the current resource allocation.
func (c *Consumer) Alloc() resource.Vector { return c.alloc }

// Speed returns the current progress rate in [0, 1].
func (c *Consumer) Speed() float64 { return c.speed }

// Remaining returns the un-done work in full-speed seconds, settling
// progress to the current instant first. Open-ended consumers return
// OpenEnded.
func (c *Consumer) Remaining() float64 {
	if c.Work < 0 {
		return OpenEnded
	}
	if c.host != nil {
		c.host.settle()
	}
	return c.remaining
}

// Progress returns the completed fraction in [0, 1]; open-ended consumers
// report 0.
func (c *Consumer) Progress() float64 {
	if c.Work <= 0 {
		return 0
	}
	rem := c.Remaining()
	p := 1 - rem/c.Work
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// SetDemand replaces the demand vector and re-solves the host. It is how
// interactive services track their client load.
func (c *Consumer) SetDemand(d resource.Vector) {
	if c.host != nil {
		c.host.settle()
	}
	c.Demand = d
	if c.host != nil {
		c.host.update()
	}
}

// SetCap installs a resource throttle (the Phase II DRM's actuator) and
// re-solves the host.
func (c *Consumer) SetCap(cap resource.Vector) {
	if c.host != nil {
		c.host.settle()
	}
	c.Cap = cap
	if c.host != nil {
		c.host.update()
	}
}

// SetWeight changes the fair-share weight and re-solves the host.
func (c *Consumer) SetWeight(w float64) {
	if c.host != nil {
		c.host.settle()
	}
	c.Weight = w
	if c.host != nil {
		c.host.update()
	}
}

// Stop detaches the consumer without invoking callbacks. Stopping an
// already-detached consumer is a no-op.
func (c *Consumer) Stop() {
	if c.state != consumerRunning {
		return
	}
	host := c.host
	host.settle()
	c.detach()
	c.state = consumerIdle
	host.update()
}

// Kill detaches the consumer and invokes OnKilled. The Phase II IPS uses
// this for interfering tasks that must be re-run elsewhere (MapReduce
// regenerates them via speculative execution).
func (c *Consumer) Kill() {
	if c.state != consumerRunning {
		return
	}
	host := c.host
	host.settle()
	c.detach()
	c.state = consumerKilled
	host.update()
	if c.OnKilled != nil {
		c.OnKilled()
	}
}

// detach removes the consumer from its container without re-solving.
func (c *Consumer) detach() {
	if c.completion != nil {
		c.host.cluster.engine.Cancel(c.completion)
		c.completion = nil
	}
	if c.vm != nil {
		c.vm.consumers = removeConsumer(c.vm.consumers, c)
	} else if c.host != nil {
		c.host.native = removeConsumer(c.host.native, c)
	}
	c.node = nil
	c.host = nil
	c.vm = nil
	c.alloc = resource.Vector{}
	c.speed = 0
}

func (c *Consumer) complete() {
	// The firing event is recycled by the engine once this callback
	// returns; drop the handle first so no later path cancels a stale one.
	c.completion = nil
	if c.state != consumerRunning {
		return
	}
	host := c.host
	host.settle()
	c.remaining = 0
	c.detach()
	c.state = consumerDone
	host.update()
	if c.OnComplete != nil {
		c.OnComplete()
	}
}

func removeConsumer(list []*Consumer, c *Consumer) []*Consumer {
	for i, x := range list {
		if x == c {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
