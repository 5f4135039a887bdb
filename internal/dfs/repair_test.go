package dfs

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
)

// refPickNewReplica is pickNewReplica as it was written before it moved
// to linear scans and reused scratch: two maps of the block's holders and
// their racks, and fresh candidate slices per call. It is the reference
// the scratch version must match draw for draw.
func refPickNewReplica(fs *FileSystem, b *Block) *DataNode {
	holders := make(map[*DataNode]struct{}, len(b.Replicas))
	holderRacks := make(map[string]struct{}, len(b.Replicas))
	for _, r := range b.Replicas {
		holders[r] = struct{}{}
		holderRacks[nodeRack(r)] = struct{}{}
	}
	rackAware := fs.spansRacks()
	var candidates, offRack []*DataNode
	for _, d := range fs.datanodes {
		if _, dup := holders[d]; dup {
			continue
		}
		if nodeIsolated(d) {
			continue
		}
		candidates = append(candidates, d)
		if rackAware {
			if _, dup := holderRacks[nodeRack(d)]; !dup {
				offRack = append(offRack, d)
			}
		}
	}
	if len(offRack) > 0 {
		candidates = offRack
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[fs.rng.Intn(len(candidates))]
}

// TestPickNewReplicaMatchesMapReference runs many repairs in a row on
// racked and unracked fleets, with and without a partition, and checks
// that each pick and the RNG draws behind it equal the map-based
// reference's. Every step re-seeds the filesystem's RNG to the same
// value before each side runs, then mutates the block (adds the pick or
// drops a replica) so the holder set keeps changing.
func TestPickNewReplicaMatchesMapReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		racks     int
		vmsPerPM  int
		partition bool
	}{
		{"unracked", 0, 0, false},
		{"unracked-vms", 0, 2, false},
		{"racked", 4, 0, false},
		{"racked-vms-partitioned", 3, 2, true},
		{"one-rack", 1, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c, fs, nodes := testFS(t, 12, tc.vmsPerPM)
			pms := c.PMs()
			if tc.racks > 0 {
				cluster.StripeTopology(pms, tc.racks, 1)
			}
			if tc.partition {
				c.PartitionNetwork(pms[:2])
			}
			f, err := fs.CreateFile("/in", 64*8, nodes[0])
			if err != nil {
				t.Fatal(err)
			}
			mut := rand.New(rand.NewSource(3))
			nils := 0
			for step := 0; step < 2000; step++ {
				b := f.Blocks[mut.Intn(len(f.Blocks))]
				seed := int64(step)
				fs.rng = rand.New(rand.NewSource(seed))
				want := refPickNewReplica(fs, b)
				wantNext := fs.rng.Int63()
				fs.rng = rand.New(rand.NewSource(seed))
				got := fs.pickNewReplica(b)
				if gotNext := fs.rng.Int63(); got != want || gotNext != wantNext {
					t.Fatalf("step %d: pick %v (next draw %d), reference %v (next draw %d)",
						step, dnName(got), gotNext, dnName(want), wantNext)
				}
				if got == nil {
					nils++
				}
				switch {
				case got != nil && len(b.Replicas) < len(fs.datanodes)-1 && mut.Intn(3) > 0:
					b.Replicas = append(b.Replicas, got)
				case len(b.Replicas) > 1:
					i := mut.Intn(len(b.Replicas))
					b.Replicas = append(b.Replicas[:i], b.Replicas[i+1:]...)
				}
			}
			if nils == 2000 {
				t.Fatal("no step had a candidate; the comparison is vacuous")
			}
		})
	}
}

func dnName(d *DataNode) string {
	if d == nil {
		return "<nil>"
	}
	return d.Node().Name()
}

// TestPickNewReplicaZeroAllocs pins a warm repair pick, racked and
// unracked, to zero allocations.
func TestPickNewReplicaZeroAllocs(t *testing.T) {
	for _, racks := range []int{0, 4} {
		_, c, fs, nodes := testFS(t, 16, 1)
		if racks > 0 {
			cluster.StripeTopology(c.PMs(), racks, 1)
		}
		f, err := fs.CreateFile("/in", 64, nodes[0])
		if err != nil {
			t.Fatal(err)
		}
		b := f.Blocks[0]
		if fs.pickNewReplica(b) == nil {
			t.Fatal("no candidate")
		}
		if allocs := testing.AllocsPerRun(100, func() { fs.pickNewReplica(b) }); allocs != 0 {
			t.Errorf("racks=%d: pickNewReplica allocates %.1f/op, want 0", racks, allocs)
		}
	}
}
