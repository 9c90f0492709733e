package posmap

import (
	"reflect"
	"testing"
	"testing/quick"

	"palermo/internal/rng"
)

func newHier() *Hierarchy {
	h := New(1<<16, 2, rng.New(42))
	for l := 0; l < h.Levels(); l++ {
		h.Attach(l, 1<<10)
	}
	return h
}

func TestLevelSizing(t *testing.T) {
	h := New(1<<16, 2, rng.New(1))
	if h.Levels() != 3 {
		t.Fatalf("levels = %d", h.Levels())
	}
	if h.Blocks(0) != 1<<16 || h.Blocks(1) != 1<<12 || h.Blocks(2) != 1<<8 {
		t.Fatalf("blocks = %d %d %d", h.Blocks(0), h.Blocks(1), h.Blocks(2))
	}
}

func TestLevelSizingRoundsUp(t *testing.T) {
	h := New(17, 1, rng.New(1))
	if h.Blocks(1) != 2 {
		t.Fatalf("blocks(1) = %d, want 2 (ceil 17/16)", h.Blocks(1))
	}
}

func TestIndex(t *testing.T) {
	h := newHier()
	if h.Index(0, 12345) != 12345 {
		t.Fatal("level-0 index must be identity")
	}
	if h.Index(1, 12345) != 12345/16 {
		t.Fatalf("level-1 index = %d", h.Index(1, 12345))
	}
	if h.Index(2, 12345) != 12345/256 {
		t.Fatalf("level-2 index = %d", h.Index(2, 12345))
	}
}

func TestLeafStableUntilRemap(t *testing.T) {
	h := newHier()
	a := h.Leaf(0, 100)
	b := h.Leaf(0, 100)
	if a != b {
		t.Fatal("Leaf must be stable without Remap")
	}
	h.Remap(0, 100)
	c := h.Leaf(0, 100)
	// Remap draws uniformly; equality is possible but the mapping must be
	// whatever Remap returned.
	if c >= 1<<10 {
		t.Fatalf("leaf %d out of range", c)
	}
}

func TestRemapReturnsStoredValue(t *testing.T) {
	h := newHier()
	leaf := h.Remap(1, 5)
	if got := h.Leaf(1, 5); got != leaf {
		t.Fatalf("Leaf = %d, want remapped %d", got, leaf)
	}
}

func TestSetLeaf(t *testing.T) {
	h := newHier()
	h.SetLeaf(0, 7, 123)
	if h.Leaf(0, 7) != 123 {
		t.Fatal("SetLeaf not honored")
	}
}

func TestLeafRangeProperty(t *testing.T) {
	h := newHier()
	f := func(idx uint16) bool {
		return h.Leaf(0, uint64(idx)) < 1<<10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeafUniformity(t *testing.T) {
	h := New(1<<20, 0, rng.New(9))
	h.Attach(0, 16)
	counts := make([]int, 16)
	for i := uint64(0); i < 160000; i++ {
		counts[h.Leaf(0, i)]++
	}
	for leaf, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("leaf %d count %d deviates >10%% from uniform", leaf, c)
		}
	}
}

func TestPendingNesting(t *testing.T) {
	h := newHier()
	if h.Pending(0, 3) {
		t.Fatal("fresh index must not be pending")
	}
	h.MarkPending(0, 3)
	h.MarkPending(0, 3)
	h.ClearPending(0, 3)
	if !h.Pending(0, 3) {
		t.Fatal("still one pending reference")
	}
	h.ClearPending(0, 3)
	if h.Pending(0, 3) {
		t.Fatal("pending must clear at zero references")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	h := newHier()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Leaf(2, 1<<20)
}

func TestUnattachedPanics(t *testing.T) {
	h := New(1024, 1, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Leaf(0, 1)
}

// TestAttachRefusesOversizeTree: 4-byte entries address at most 2^32
// leaves; a larger tree is refused instead of truncating its draws.
func TestAttachRefusesOversizeTree(t *testing.T) {
	h := New(1<<10, 0, rng.New(1))
	if err := h.Attach(0, MaxLeaves); err != nil {
		t.Fatalf("2^32 leaves refused: %v", err)
	}
	if err := h.Attach(0, MaxLeaves+1); err == nil {
		t.Fatal("2^32+1 leaves accepted")
	}
}

// TestTopLeafIsAssigned: at the 2^32-leaf limit every 32-bit value is a
// leaf, including 2^32-1, so assignment cannot be an in-band sentinel. A
// stored 2^32-1 must read back without a fresh draw.
func TestTopLeafIsAssigned(t *testing.T) {
	h := New(1<<10, 0, rng.New(1))
	if err := h.Attach(0, MaxLeaves); err != nil {
		t.Fatal(err)
	}
	h.SetLeaf(0, 3, MaxLeaves-1)
	before := h.r.State()
	if got := h.Leaf(0, 3); got != MaxLeaves-1 {
		t.Fatalf("Leaf = %d, want %d", got, uint64(MaxLeaves-1))
	}
	if h.r.State() != before {
		t.Fatal("reading an assigned entry drew from the RNG")
	}
}

// TestStateRestoreRoundTrip: a level's flat state restores to a table that
// answers every lookup alike (without RNG draws) and exports the same
// state again, over a sparse spread of indices across several chunks.
func TestStateRestoreRoundTrip(t *testing.T) {
	const blocks = 1 << 20
	h := New(blocks, 0, rng.New(3))
	h.Attach(0, 1<<12)
	r := rng.New(4)
	idx := []uint64{0, 63, 64, blocks - 1}
	for i := 0; i < 3000; i++ {
		idx = append(idx, r.Uint64n(blocks))
	}
	for _, i := range idx {
		h.Leaf(0, i)
	}
	st := h.State(0)

	g := New(blocks, 0, rng.New(99))
	g.Attach(0, 1<<12)
	if err := g.Restore(0, st); err != nil {
		t.Fatal(err)
	}
	before := g.r.State()
	for _, i := range idx {
		if a, b := h.Leaf(0, i), g.Leaf(0, i); a != b {
			t.Fatalf("index %d: restored leaf %d, want %d", i, b, a)
		}
	}
	if g.r.State() != before {
		t.Fatal("restored table drew from the RNG for an assigned entry")
	}
	if got := g.State(0); !reflect.DeepEqual(got, st) {
		t.Fatal("re-exported state differs from the restored one")
	}
}

// TestRestoreRejectsMalformed: a state naming entries outside the level,
// leaves outside the tree, or disagreeing array lengths is refused.
func TestRestoreRejectsMalformed(t *testing.T) {
	h := New(100, 0, rng.New(1))
	h.Attach(0, 16)
	for name, st := range map[string]LevelState{
		"entry past level": {Pages: []uint64{1}, Set: []uint64{1 << 40}, Leaves: []uint32{0}},
		"page past level":  {Pages: []uint64{1 << 60}, Set: []uint64{1}, Leaves: []uint32{0}},
		"leaf past tree":   {Pages: []uint64{0}, Set: []uint64{1}, Leaves: []uint32{16}},
		"empty bitmap":     {Pages: []uint64{0}, Set: []uint64{0}},
		"missing leaves":   {Pages: []uint64{0}, Set: []uint64{3}, Leaves: []uint32{1}},
		"extra leaves":     {Pages: []uint64{0}, Set: []uint64{1}, Leaves: []uint32{1, 2}},
		"unsorted pages":   {Pages: []uint64{1, 0}, Set: []uint64{1, 1}, Leaves: []uint32{1, 2}},
		"bitmap count":     {Pages: []uint64{0}, Leaves: []uint32{1}},
	} {
		if err := h.Restore(0, st); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
