// Package dfs simulates an HDFS-like distributed filesystem: a namespace
// of files split into fixed-size blocks, replicated across DataNodes that
// live on cluster nodes. Reads and writes become resource consumers on
// the involved nodes, so DFS traffic contends with MapReduce tasks and
// interactive services exactly as on the paper's testbed. The package
// also provides the TestDFSIO benchmark used for Figure 1(c).
package dfs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/perfstat"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes the filesystem. Zero values take the Hadoop v0.22
// defaults used in the paper (64 MB blocks, 2 replicas).
type Config struct {
	// BlockMB is the block size.
	BlockMB float64
	// Replication is the number of replicas per block.
	Replication int
}

func (c Config) withDefaults() Config {
	if c.BlockMB <= 0 {
		c.BlockMB = 64
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	return c
}

// DataNode stores block replicas on a cluster node.
type DataNode struct {
	node   cluster.Node
	blocks map[string]struct{}
	usedMB float64
}

// Node returns the cluster node backing this DataNode.
func (d *DataNode) Node() cluster.Node { return d.node }

// UsedMB returns the bytes stored.
func (d *DataNode) UsedMB() float64 { return d.usedMB }

// BlockCount returns the number of replicas resident.
func (d *DataNode) BlockCount() int { return len(d.blocks) }

// Block is one block of a file.
type Block struct {
	// ID is unique within the filesystem.
	ID string
	// SizeMB is the block's size (the last block may be short).
	SizeMB float64
	// Replicas are the DataNodes holding a copy.
	Replicas []*DataNode
}

// File is a named sequence of blocks.
type File struct {
	// Name is the file's path.
	Name string
	// SizeMB is the total size.
	SizeMB float64
	// Blocks lists the file's blocks in order.
	Blocks []*Block
}

// FileSystem is the NameNode: namespace plus block placement.
type FileSystem struct {
	engine    *sim.Engine
	cfg       Config
	rng       *rand.Rand
	datanodes []*DataNode
	byNode    map[cluster.Node]*DataNode
	files     map[string]*File
	nextBlock int

	// pool is the placement sampling pool: the same DataNodes as
	// datanodes, but in an order placeReplicas is free to permute so a
	// draw window can exclude ineligible nodes by swapping them past the
	// window edge instead of rejection-sampling around them. poolPos
	// tracks each node's current pool index.
	pool    []*DataNode
	poolPos map[*DataNode]int

	// dnVersion moves whenever a DataNode is registered or removed.
	// Together with the topology epochs of the clusters backing the
	// DataNodes, it decides when topo is stale.
	dnVersion uint64
	clusters  []*cluster.Cluster
	topo      topoCache

	// Scratch for pickNewReplica, reused so a repair allocates nothing
	// in steady state. The two candidate lists keep separate backing
	// arrays.
	repairRacks   []string
	repairCands   []*DataNode
	repairOffRack []*DataNode

	// Observers, read from the engine's scope at New. The metric
	// handles are nil (a no-op) when the scope carries no registry.
	tracer             *trace.Tracer
	perf               *perfstat.Stats
	mReadNodeLocal     *trace.Counter
	mReadHostLocal     *trace.Counter
	mReadRemote        *trace.Counter
	mReReplications    *trace.Counter
	mBlocksLost        *trace.Counter
	mBlocksRestored    *trace.Counter
	mReplicasCorrupted *trace.Counter
}

// New creates an empty filesystem on the given engine.
func New(engine *sim.Engine, cfg Config, seed int64) *FileSystem {
	sc := engine.Obs()
	reg := sc.Metrics
	return &FileSystem{
		engine:  engine,
		cfg:     cfg.withDefaults(),
		rng:     rand.New(rand.NewSource(seed)),
		byNode:  make(map[cluster.Node]*DataNode),
		files:   make(map[string]*File),
		poolPos: make(map[*DataNode]int),
		topo:    topoCache{onMachine: make(map[*cluster.PM]int)},
		tracer:  sc.Trace,
		perf:    sc.Perf,

		mReadNodeLocal:     reg.Counter("dfs.reads.node_local"),
		mReadHostLocal:     reg.Counter("dfs.reads.host_local"),
		mReadRemote:        reg.Counter("dfs.reads.remote"),
		mReReplications:    reg.Counter("dfs.blocks.rereplicated"),
		mBlocksLost:        reg.Counter("dfs.blocks.lost"),
		mBlocksRestored:    reg.Counter("dfs.blocks.restored"),
		mReplicasCorrupted: reg.Counter("dfs.replicas.corrupted"),
	}
}

// Config returns the effective configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// CountRead records a block read at the given locality in the metrics
// registry and, when a tracer is installed, as an instant event on the
// reader's track. Readers (the MapReduce layer) call it when they
// resolve a block's locality for an actual read.
func (fs *FileSystem) CountRead(b *Block, reader cluster.Node, loc Locality) {
	switch loc {
	case NodeLocal:
		fs.mReadNodeLocal.Inc()
	case HostLocal:
		fs.mReadHostLocal.Inc()
	default:
		fs.mReadRemote.Inc()
	}
	if fs.tracer != nil && b != nil && reader != nil {
		fs.tracer.Instant(reader.Name(), "dfs", "block-read",
			trace.S("block", b.ID),
			trace.S("locality", loc.String()),
			trace.F("size_mb", b.SizeMB))
	}
}

// AddDataNode registers a cluster node as block storage. Adding the same
// node twice returns the existing DataNode.
func (fs *FileSystem) AddDataNode(n cluster.Node) *DataNode {
	if d, ok := fs.byNode[n]; ok {
		return d
	}
	d := &DataNode{node: n, blocks: make(map[string]struct{})}
	fs.datanodes = append(fs.datanodes, d)
	fs.byNode[n] = d
	fs.poolPos[d] = len(fs.pool)
	fs.pool = append(fs.pool, d)
	fs.dnVersion++
	if pm := n.Machine(); pm != nil && !slices.Contains(fs.clusters, pm.Cluster()) {
		fs.clusters = append(fs.clusters, pm.Cluster())
	}
	return d
}

// swapPool exchanges two pool slots, keeping poolPos in sync.
func (fs *FileSystem) swapPool(i, j int) {
	if i == j {
		return
	}
	fs.pool[i], fs.pool[j] = fs.pool[j], fs.pool[i]
	fs.poolPos[fs.pool[i]] = i
	fs.poolPos[fs.pool[j]] = j
}

// DataNodes returns the registered DataNodes.
func (fs *FileSystem) DataNodes() []*DataNode {
	out := make([]*DataNode, len(fs.datanodes))
	copy(out, fs.datanodes)
	return out
}

// File looks up a file by name.
func (fs *FileSystem) File(name string) (*File, bool) {
	f, ok := fs.files[name]
	return f, ok
}

// CreateFile lays out a file's blocks and replicas instantly, without
// simulating the write traffic. Workload setup uses it to pre-load input
// data sets, mirroring how the paper's inputs exist in HDFS before the
// measured runs begin.
func (fs *FileSystem) CreateFile(name string, sizeMB float64, preferred cluster.Node) (*File, error) {
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if sizeMB <= 0 {
		return nil, fmt.Errorf("dfs: file %q: size must be positive", name)
	}
	if len(fs.datanodes) == 0 {
		return nil, fmt.Errorf("dfs: no DataNodes registered")
	}
	f := &File{Name: name, SizeMB: sizeMB}
	fs.perf.Enter("dfs.placement")
	defer fs.perf.Exit()
	remaining := sizeMB
	for remaining > 0 {
		size := math.Min(fs.cfg.BlockMB, remaining)
		remaining -= size
		b := &Block{
			ID:     fmt.Sprintf("blk-%d", fs.nextBlock),
			SizeMB: size,
		}
		fs.nextBlock++
		b.Replicas = fs.placeReplicas(preferred)
		for _, d := range b.Replicas {
			d.blocks[b.ID] = struct{}{}
			d.usedMB += size
		}
		f.Blocks = append(f.Blocks, b)
	}
	fs.files[name] = f
	return f, nil
}

// Delete removes a file and frees its replicas.
func (fs *FileSystem) Delete(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("dfs: file %q not found", name)
	}
	for _, b := range f.Blocks {
		for _, d := range b.Replicas {
			if _, has := d.blocks[b.ID]; has {
				delete(d.blocks, b.ID)
				d.usedMB -= b.SizeMB
			}
		}
	}
	delete(fs.files, name)
	return nil
}

// placeReplicas implements the HDFS policy: first replica on the
// writer's DataNode when it is one, remaining replicas on randomly chosen
// DataNodes — preferring distinct racks when the datanodes span more than
// one (Hadoop's rack-aware placement, so a rack switch or PDU loss cannot
// take out every copy), then distinct physical machines, falling back to
// merely distinct DataNodes when the cluster is too small for diversity.
// DataNodes isolated by a network partition are never eligible: the
// NameNode cannot reach them.
//
// Sampling draws from the shared pool through a shrinking window rather
// than rejection-sampling the full fleet: every draw either places a
// replica or permanently narrows the window (isolated or already-used
// nodes leave it for the rest of the block, diversity violators for the
// rest of the pass), so draws per block stay near the replication factor
// instead of scaling with fleet size. Window layout during a pass:
// [0, limit) eligible, [limit, hard) excluded this pass only,
// [hard, len) excluded for the whole block.
func (fs *FileSystem) placeReplicas(preferred cluster.Node) []*DataNode {
	if fs.perf != nil {
		fs.perf.C.DFSBlocksPlaced++
	}
	want := fs.cfg.Replication
	if want > len(fs.datanodes) {
		want = len(fs.datanodes)
	}
	chosen := make([]*DataNode, 0, want)
	usedMachines := make(map[*cluster.PM]struct{}, want)
	usedRacks := make(map[string]struct{}, want)
	hard := len(fs.pool)
	limit := hard
	add := func(d *DataNode) {
		chosen = append(chosen, d)
		usedMachines[d.node.Machine()] = struct{}{}
		usedRacks[nodeRack(d)] = struct{}{}
		if j := fs.poolPos[d]; j < hard {
			if j < limit {
				fs.swapPool(j, limit-1)
				limit--
				j = limit
			}
			fs.swapPool(j, hard-1)
			hard--
		}
	}
	if preferred != nil {
		if d, ok := fs.byNode[preferred]; ok {
			add(d)
		}
	}
	// Passes from strictest to loosest. The rack-diverse pass only exists
	// when the datanodes actually span racks, so clusters without an
	// assigned topology skip straight to machine diversity.
	type placePass struct{ machineDiverse, rackDiverse bool }
	passes := []placePass{{true, false}, {false, false}}
	if fs.spansRacks() {
		passes = []placePass{{true, true}, {true, false}, {false, false}}
	}
	for _, pass := range passes {
		limit = hard
		for len(chosen) < want && limit > 0 {
			if fs.perf != nil {
				fs.perf.C.DFSPlacementDraws++
			}
			j := limit - 1 - fs.rng.Intn(limit)
			d := fs.pool[j]
			if nodeIsolated(d) {
				// Unreachable for every pass of this block.
				fs.swapPool(j, limit-1)
				limit--
				fs.swapPool(limit, hard-1)
				hard--
				continue
			}
			if pass.machineDiverse {
				if _, dup := usedMachines[d.node.Machine()]; dup {
					fs.swapPool(j, limit-1)
					limit--
					continue
				}
			}
			if pass.rackDiverse {
				if _, dup := usedRacks[nodeRack(d)]; dup {
					fs.swapPool(j, limit-1)
					limit--
					continue
				}
			}
			add(d)
		}
	}
	return chosen
}

// nodeRack is the rack label of the machine behind a DataNode ("" when
// no topology was assigned or the machine is gone).
func nodeRack(d *DataNode) string {
	if pm := d.node.Machine(); pm != nil {
		return pm.Rack()
	}
	return ""
}

// nodeIsolated reports whether a network partition cuts the DataNode's
// machine off from the NameNode.
func nodeIsolated(d *DataNode) bool {
	pm := d.node.Machine()
	return pm != nil && pm.Isolated()
}

// spansRacks reports whether the registered DataNodes sit in more than
// one rack — the condition under which rack-diverse placement engages.
func (fs *FileSystem) spansRacks() bool { return fs.topology().spansRacks }

// OffHostFraction is the probability that a random DataNode lives on a
// different physical machine than n — the share of replication traffic
// that crosses the wire.
func (fs *FileSystem) OffHostFraction(n cluster.Node) float64 {
	total := len(fs.datanodes)
	if total == 0 {
		return 1
	}
	return float64(total-fs.topology().onMachine[n.Machine()]) / float64(total)
}

// topoCache holds what placement and the shuffle estimate read about
// where the DataNodes sit, so neither scans the fleet per block or per
// reduce launch. Its zero inputs describe an empty filesystem correctly.
type topoCache struct {
	epoch, version uint64 // the inputs it was built at
	spansRacks     bool
	// onMachine counts DataNodes per Machine(); the nil key counts those
	// whose VM was destroyed.
	onMachine map[*cluster.PM]int
}

// topology returns the topology cache, rebuilding it in place when a
// DataNode was registered or removed, or a backing cluster's topology
// epoch moved since it was built. The counts are keyed on each node's
// Machine(), not on the PMs' VM lists: during a migration's stop-and-copy
// the VM has left its source's list while Machine() still names the
// source.
func (fs *FileSystem) topology() *topoCache {
	t := &fs.topo
	var epoch uint64
	for _, c := range fs.clusters {
		epoch += c.TopologyEpoch()
	}
	if t.epoch == epoch && t.version == fs.dnVersion {
		return t
	}
	t.epoch, t.version = epoch, fs.dnVersion
	t.spansRacks = false
	clear(t.onMachine)
	for _, d := range fs.datanodes {
		t.onMachine[d.node.Machine()]++
		if !t.spansRacks && nodeRack(d) != nodeRack(fs.datanodes[0]) {
			t.spansRacks = true
		}
	}
	return t
}

// FailureReport summarizes the namespace damage after a DataNode loss.
type FailureReport struct {
	// ReReplicated counts blocks that lost one replica and were copied
	// to a new holder.
	ReReplicated int
	// Lost counts blocks whose every replica was on failed nodes; their
	// files are unreadable.
	Lost int
}

// HandleNodeFailure removes the DataNode on n from the namespace and
// repairs the damage; see HandleNodeFailures.
func (fs *FileSystem) HandleNodeFailure(n cluster.Node) FailureReport {
	return fs.HandleNodeFailures([]cluster.Node{n})
}

// HandleNodeFailures removes the DataNodes on every given node from the
// namespace, then re-replicates blocks that lost replicas onto surviving
// DataNodes (charging best-effort background copy traffic to the new
// holders, as the NameNode's re-replication queue would), and reports
// blocks whose last replica died. Correlated failures — a physical
// machine taking all of its VMs down — must be passed as one batch so no
// doomed node is chosen as a re-replication target.
func (fs *FileSystem) HandleNodeFailures(nodes []cluster.Node) FailureReport {
	failedSet := make(map[*DataNode]struct{}, len(nodes))
	for _, n := range nodes {
		failed, ok := fs.byNode[n]
		if !ok {
			continue
		}
		failedSet[failed] = struct{}{}
		delete(fs.byNode, n)
		fs.dnVersion++
		for i, d := range fs.datanodes {
			if d == failed {
				fs.datanodes = append(fs.datanodes[:i], fs.datanodes[i+1:]...)
				break
			}
		}
	}
	if len(failedSet) == 0 {
		return FailureReport{}
	}

	var report FailureReport
	// Walk files in name order: map iteration order would randomize the
	// rng draw sequence (and thus replica placement) across runs.
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fs.files[name]
		for _, b := range f.Blocks {
			kept := b.Replicas[:0]
			lostOne := false
			for _, r := range b.Replicas {
				if _, dead := failedSet[r]; dead {
					lostOne = true
					continue
				}
				kept = append(kept, r)
			}
			b.Replicas = kept
			if !lostOne {
				continue
			}
			if len(b.Replicas) == 0 {
				report.Lost++
				fs.mBlocksLost.Inc()
				continue
			}
			for len(b.Replicas) < fs.TargetReplication() && fs.repairBlock(b) {
				report.ReReplicated++
			}
		}
	}
	return report
}

// repairBlock copies one surviving replica of an under-replicated block
// to a new DataNode, charging best-effort background copy traffic to the
// new holder as the NameNode's re-replication queue would. It returns
// false when no eligible target exists (or the block has no live replica
// to copy from).
func (fs *FileSystem) repairBlock(b *Block) bool {
	if len(b.Replicas) == 0 || len(fs.datanodes) <= len(b.Replicas) {
		return false
	}
	target := fs.pickNewReplica(b)
	if target == nil {
		return false
	}
	b.Replicas = append(b.Replicas, target)
	target.blocks[b.ID] = struct{}{}
	target.usedMB += b.SizeMB
	fs.mReReplications.Inc()
	if fs.tracer != nil {
		fs.tracer.Instant(target.node.Name(), "dfs", "re-replicate",
			trace.S("block", b.ID),
			trace.F("size_mb", b.SizeMB))
	}
	// Background copy: disk+net load on the new holder for the block's
	// transfer, best effort.
	copyRate := 20.0
	_ = target.node.Start(&cluster.Consumer{
		Name:   fmt.Sprintf("dfs-rereplicate:%s@%s", b.ID, target.node.Name()),
		Demand: resourceVectorForCopy(copyRate),
		Work:   b.SizeMB / copyRate,
	})
	return true
}

// TargetReplication is the replication factor the namespace can actually
// sustain: the configured factor, bounded by the number of live
// DataNodes.
func (fs *FileSystem) TargetReplication() int {
	if n := len(fs.datanodes); n < fs.cfg.Replication {
		return n
	}
	return fs.cfg.Replication
}

// Files returns the namespace in name order.
func (fs *FileSystem) Files() []*File {
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*File, 0, len(names))
	for _, name := range names {
		out = append(out, fs.files[name])
	}
	return out
}

// UnderReplicated counts live blocks (at least one replica) below the
// target replication.
func (fs *FileSystem) UnderReplicated() int {
	n := 0
	target := fs.TargetReplication()
	for _, f := range fs.files {
		for _, b := range f.Blocks {
			if len(b.Replicas) > 0 && len(b.Replicas) < target {
				n++
			}
		}
	}
	return n
}

// LostBlocks counts blocks with no surviving replica.
func (fs *FileSystem) LostBlocks() int {
	n := 0
	for _, f := range fs.files {
		for _, b := range f.Blocks {
			if len(b.Replicas) == 0 {
				n++
			}
		}
	}
	return n
}

// RepairUnderReplicated sweeps the namespace and re-replicates every
// live block below target replication, returning the number of copies
// made. Callers run it after capacity returns (a repaired PM brings its
// DataNodes back) to converge the namespace.
func (fs *FileSystem) RepairUnderReplicated() int {
	copies := 0
	for _, f := range fs.Files() { // name order keeps rng draws deterministic
		for _, b := range f.Blocks {
			if len(b.Replicas) == 0 {
				continue
			}
			for len(b.Replicas) < fs.TargetReplication() && fs.repairBlock(b) {
				copies++
			}
		}
	}
	return copies
}

// RestoreBlock re-ingests a block whose every replica was destroyed,
// from the file's durable upstream source — the gateway the input was
// originally imported from, which outlives the cluster. Fresh replicas
// are written to live DataNodes up to the sustainable target and the
// ingest traffic is charged to each new holder, like re-replication. It
// returns false when the block still has replicas (nothing to restore)
// or no DataNode can take a copy. Correlated failures make total
// replica loss a real event — a rack crash can take out every holder at
// once — and without this path a re-executed map would read data that
// no longer exists anywhere.
func (fs *FileSystem) RestoreBlock(b *Block) bool {
	if b == nil || len(b.Replicas) > 0 || len(fs.datanodes) == 0 {
		return false
	}
	restored := false
	for len(b.Replicas) < fs.TargetReplication() {
		target := fs.pickNewReplica(b)
		if target == nil {
			break
		}
		b.Replicas = append(b.Replicas, target)
		target.blocks[b.ID] = struct{}{}
		target.usedMB += b.SizeMB
		restored = true
		fs.mBlocksRestored.Inc()
		if fs.tracer != nil {
			fs.tracer.Instant(target.node.Name(), "dfs", "restore-from-source",
				trace.S("block", b.ID),
				trace.F("size_mb", b.SizeMB))
		}
		// Re-ingest traffic: the copy streams in over the new holder's
		// network and disk, best effort like the re-replication queue.
		copyRate := 20.0
		_ = target.node.Start(&cluster.Consumer{
			Name:   fmt.Sprintf("dfs-restore:%s@%s", b.ID, target.node.Name()),
			Demand: resourceVectorForCopy(copyRate),
			Work:   b.SizeMB / copyRate,
		})
	}
	return restored
}

// CorruptReplica destroys one replica of a block — a checksum failure on
// d's disk. If other replicas survive, the block is immediately
// re-replicated; if it was the last copy, the block is lost and the
// return value is true.
func (fs *FileSystem) CorruptReplica(b *Block, d *DataNode) (lost bool) {
	found := false
	for i, r := range b.Replicas {
		if r == d {
			b.Replicas = append(b.Replicas[:i], b.Replicas[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	delete(d.blocks, b.ID)
	d.usedMB -= b.SizeMB
	fs.mReplicasCorrupted.Inc()
	if fs.tracer != nil {
		fs.tracer.Instant(d.node.Name(), "dfs", "replica-corrupted",
			trace.S("block", b.ID),
			trace.F("survivors", float64(len(b.Replicas))))
	}
	if len(b.Replicas) == 0 {
		fs.mBlocksLost.Inc()
		return true
	}
	for len(b.Replicas) < fs.TargetReplication() && fs.repairBlock(b) {
	}
	return false
}

// pickNewReplica chooses a surviving DataNode not already holding the
// block, preferring racks that hold no replica yet (so repairs restore
// rack diversity, not just the count) and never picking a node isolated
// by a network partition. Without topology or partitions the candidate
// set and the single rng draw are identical to the pre-rack-aware
// behavior.
func (fs *FileSystem) pickNewReplica(b *Block) *DataNode {
	if fs.perf != nil {
		// Repair scans every DataNode to find survivors not holding the
		// block.
		fs.perf.C.DFSRepairScans += int64(len(fs.datanodes))
	}
	racks := fs.repairRacks[:0]
	for _, r := range b.Replicas {
		racks = append(racks, nodeRack(r))
	}
	rackAware := fs.spansRacks()
	// Deterministic seeded choice among candidates.
	candidates, offRack := fs.repairCands[:0], fs.repairOffRack[:0]
	for _, d := range fs.datanodes {
		if slices.Contains(b.Replicas, d) || nodeIsolated(d) {
			continue
		}
		candidates = append(candidates, d)
		if rackAware && !slices.Contains(racks, nodeRack(d)) {
			offRack = append(offRack, d)
		}
	}
	fs.repairRacks, fs.repairCands, fs.repairOffRack = racks, candidates, offRack
	if len(offRack) > 0 {
		candidates = offRack
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[fs.rng.Intn(len(candidates))]
}

// Locality describes how close a block replica is to a reader.
type Locality int

// Locality levels, from best to worst.
const (
	NodeLocal Locality = iota + 1
	HostLocal
	Remote
)

// String names the locality level.
func (l Locality) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case HostLocal:
		return "host-local"
	case Remote:
		return "remote"
	default:
		return fmt.Sprintf("locality(%d)", int(l))
	}
}

// BlockLocality returns the best locality of any replica of b relative to
// the reader: on the same node, on a different node of the same physical
// host (VMs sharing a PM exchange data without the NIC), or remote.
func (fs *FileSystem) BlockLocality(b *Block, reader cluster.Node) Locality {
	best := Remote
	for _, d := range b.Replicas {
		if d.node == reader {
			return NodeLocal
		}
		if d.node.Machine() == reader.Machine() && best > HostLocal {
			best = HostLocal
		}
	}
	return best
}

// LocalityFractions returns the fraction of a file's blocks at each
// locality level for the given reader.
func (fs *FileSystem) LocalityFractions(name string, reader cluster.Node) (nodeLocal, hostLocal, remote float64, err error) {
	f, ok := fs.files[name]
	if !ok {
		return 0, 0, 0, fmt.Errorf("dfs: file %q not found", name)
	}
	if len(f.Blocks) == 0 {
		return 0, 0, 0, nil
	}
	for _, b := range f.Blocks {
		switch fs.BlockLocality(b, reader) {
		case NodeLocal:
			nodeLocal++
		case HostLocal:
			hostLocal++
		default:
			remote++
		}
	}
	n := float64(len(f.Blocks))
	return nodeLocal / n, hostLocal / n, remote / n, nil
}
