package otree

import (
	"reflect"
	"testing"

	"palermo/internal/rng"
)

// TestResidentTopParity drives two stores through an identical operation
// sequence — one plain, one with the dense resident top — and asserts the
// externally visible state is bit-identical: same reads, same exported
// State (so durable checkpoints cannot depend on the representation), same
// materialization count.
func TestResidentTopParity(t *testing.T) {
	g := UniformWide(1<<10, 4, 5, 1, 0, 0)
	a := NewStore(g, rng.New(7))
	b := NewStore(g, rng.New(7))
	b.EnableResidentTop(4)

	drive := func(s *Store) StoreState {
		for leaf := uint64(0); leaf < g.NumLeaves(); leaf += 3 {
			for l := 0; l <= g.Depth; l++ {
				node := g.NodeAt(leaf, l)
				if s.NeedsReset(node, 1) {
					s.ResetPull(node)
					s.WriteBucket(node, []BlockEntry{{ID: BlockID(node), Val: leaf}})
				}
				e1, slot1, ok1 := s.ReadSlot(node, BlockID(node))
				_ = e1
				_ = slot1
				_ = ok1
			}
		}
		return s.State()
	}
	sa, sb := drive(a), drive(b)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("State diverged between map and resident-top representations: %d vs %d buckets", len(sa.Nodes), len(sb.Nodes))
	}
	if a.Materialized() != b.Materialized() {
		t.Fatalf("Materialized diverged: %d vs %d", a.Materialized(), b.Materialized())
	}

	// Restore into a resident-top store must round-trip through State.
	c := NewStore(g, rng.New(7))
	c.EnableResidentTop(4)
	if err := c.Restore(sa); err != nil {
		t.Fatal(err)
	}
	if got := c.State(); !reflect.DeepEqual(got, sa) {
		t.Fatalf("State/Restore round trip diverged with resident top enabled")
	}
}

// TestResidentTopLateEnable migrates existing map entries into the dense
// range when residency is enabled after population.
func TestResidentTopLateEnable(t *testing.T) {
	g := UniformWide(1<<8, 4, 5, 1, 0, 0)
	s := NewStore(g, rng.New(3))
	s.Bucket(0).Blocks = []BlockEntry{{ID: 42, Val: 9}}
	s.Bucket(5)
	s.EnableResidentTop(3) // nodes 0..6 dense
	if s.Occupancy(0) != 1 {
		t.Fatalf("bucket 0 lost its block across migration")
	}
	if s.Materialized() != 2 {
		t.Fatalf("Materialized = %d, want 2", s.Materialized())
	}
	if b := s.Bucket(0); len(b.Blocks) != 1 || b.Blocks[0].ID != 42 {
		t.Fatalf("migrated bucket contents diverged: %+v", s.Bucket(0))
	}
}

// TestNewTreeTopLevels clamps to the tree depth and disables at k <= 0.
func TestNewTreeTopLevels(t *testing.T) {
	g := UniformWide(1<<8, 4, 5, 1, 0, 0)
	if got := NewTreeTopLevels(g, 1000).Levels(); got != g.Depth+1 {
		t.Fatalf("Levels = %d, want clamp to %d", got, g.Depth+1)
	}
	if got := NewTreeTopLevels(g, -1).Levels(); got != 0 {
		t.Fatalf("Levels = %d, want 0 for negative k", got)
	}
	tt := NewTreeTopLevels(g, 2)
	if !tt.Cached(1) || tt.Cached(2) {
		t.Fatalf("Cached boundary wrong for k=2")
	}
}
