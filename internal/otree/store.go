package otree

import (
	"fmt"
	"math/bits"
	"slices"

	"palermo/internal/bitpack"
	"palermo/internal/rng"
)

// BlockEntry is a real block resident in a bucket.
type BlockEntry struct {
	ID  BlockID
	Val uint64 // payload carried through the simulator for correctness checks
}

// Bucket is the functional state of one tree node. A zero-value bucket is a
// freshly reset, empty bucket (all slots valid dummies). Slot permutation is
// tracked as a bitset of consumed slot offsets: RingORAM invalidates the
// touched slot on every access and never re-reads it before a reset. The
// first 64 offsets live in the struct itself, so a bucket of up to 64 slots
// is one heap object besides its block array.
type Bucket struct {
	Blocks   []BlockEntry // valid real blocks currently stored
	Accessed int          // touches since the last reset
	used     uint64       // consumed slot offsets 0..63
	usedHi   []uint64     // consumed offsets 64 and up, one word per 64
}

// usedWord returns word w (offsets 64w..64w+63) of the consumed-slot bitset.
func (b *Bucket) usedWord(w int) uint64 {
	if w == 0 {
		return b.used
	}
	if w-1 < len(b.usedHi) {
		return b.usedHi[w-1]
	}
	return 0
}

func (b *Bucket) setUsed(off int) {
	if off < 64 {
		b.used |= 1 << off
		return
	}
	w := off/64 - 1
	for len(b.usedHi) <= w {
		b.usedHi = append(b.usedHi, 0)
	}
	b.usedHi[w] |= 1 << (off % 64)
}

func (b *Bucket) clearUsed() {
	b.used = 0
	clear(b.usedHi)
	b.Accessed = 0
}

// Store is a lazily-materialized bucket container for one ORAM tree. Buckets
// are created on first touch so full-scale (16 GB-space) geometries run in
// bounded memory. The top of the tree — the nodes every path traverses —
// can additionally be held in a dense resident array (EnableResidentTop),
// replacing the map lookup on the hottest nodes with an index; residency is
// a pure representation change and never alters which buckets exist.
type Store struct {
	g       Geometry
	buckets map[uint64]*Bucket
	top     []*Bucket // dense resident nodes [0, len(top)); nil = untouched
	r       *rng.Rand
}

// maxResidentNodes bounds the dense resident array so a deep tree with a
// large requested level count cannot allocate an absurd pointer table
// (2^20 nodes ~ 8 MB; levels beyond stay in the map, correctness
// unchanged).
const maxResidentNodes = 1 << 20

// NewStore creates an empty tree (every bucket holds only dummies).
func NewStore(g Geometry, r *rng.Rand) *Store {
	return &Store{g: g, buckets: make(map[uint64]*Bucket), r: r}
}

// Geometry returns the tree geometry.
func (s *Store) Geometry() Geometry { return s.g }

// EnableResidentTop keeps the top k levels' buckets (nodes 0..2^k-2 in the
// level-order numbering) in a dense array instead of the map. Call before
// or after population; existing map entries in the resident range migrate.
// Purely an access-path optimization: materialization order, State output,
// and protocol behavior are bit-identical with residency on or off.
func (s *Store) EnableResidentTop(levels int) {
	if levels <= 0 {
		return
	}
	if levels > s.g.Depth+1 {
		levels = s.g.Depth + 1
	}
	n := uint64(1)<<levels - 1
	if n > s.g.NumNodes() {
		n = s.g.NumNodes()
	}
	if n > maxResidentNodes {
		n = maxResidentNodes
	}
	if uint64(len(s.top)) >= n {
		return
	}
	top := make([]*Bucket, n)
	copy(top, s.top)
	s.top = top
	for node, b := range s.buckets {
		if node < n {
			s.top[node] = b
			delete(s.buckets, node)
		}
	}
}

// Bucket materializes and returns the bucket for node.
func (s *Store) Bucket(node uint64) *Bucket {
	if node < uint64(len(s.top)) {
		b := s.top[node]
		if b == nil {
			b = &Bucket{}
			s.top[node] = b
		}
		return b
	}
	b, ok := s.buckets[node]
	if !ok {
		b = &Bucket{}
		s.buckets[node] = b
	}
	return b
}

// peek returns the bucket for node without materializing it.
func (s *Store) peek(node uint64) (*Bucket, bool) {
	if node < uint64(len(s.top)) {
		b := s.top[node]
		return b, b != nil
	}
	b, ok := s.buckets[node]
	return b, ok
}

// Materialized returns the number of buckets touched so far.
func (s *Store) Materialized() int {
	n := len(s.buckets)
	for _, b := range s.top {
		if b != nil {
			n++
		}
	}
	return n
}

// find returns the index of id in b.Blocks, or -1.
func (b *Bucket) find(id BlockID) int {
	for i := range b.Blocks {
		if b.Blocks[i].ID == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the bucket currently holds id as a valid block.
func (b *Bucket) Contains(id BlockID) bool { return b.find(id) >= 0 }

// freeSlot picks a uniformly random unconsumed slot offset: the k-th
// unused offset for one RNG draw k, found a 64-slot word at a time (the
// functional model does not track the real permutation; any distinct
// offset is equivalent for timing and the permutation is re-randomized on
// reset).
func (s *Store) freeSlot(b *Bucket, slots int) int {
	free := slots - b.Accessed
	if free <= 0 {
		panic("otree: ReadSlot on exhausted bucket (protocol must reset first)")
	}
	words := (slots + 63) / 64
	k := s.r.Intn(free)
	for w := 0; w < words; w++ {
		avail := ^b.usedWord(w)
		if rem := slots - w*64; rem < 64 {
			avail &= 1<<rem - 1
		}
		if c := bits.OnesCount64(avail); k >= c {
			k -= c
			continue
		}
		return w*64 + selectBit(avail, k)
	}
	panic("unreachable")
}

// selectBit returns the position of the k-th (0-based) set bit of x, which
// must have more than k set bits. It is the broadword select: per-byte
// popcounts, their prefix sums by one multiply, a lane-parallel compare
// against k to find the byte holding the bit, then a short scan inside
// that byte — no data-dependent branch on the 64-bit word.
func selectBit(x uint64, k int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	c := x - (x>>1)&0x5555555555555555
	c = c&0x3333333333333333 + (c>>2)&0x3333333333333333
	c = (c + c>>4) & 0x0F0F0F0F0F0F0F0F
	prefix := c * ones // byte i: set bits in bytes 0..i (at most 64, so lanes never carry)
	// Lane i's high bit survives iff prefix_i <= k; prefix is monotone, so
	// the count of such lanes is the index of the byte holding the bit.
	idx := bits.OnesCount64(((uint64(k)*ones | highs) - prefix) & highs)
	k -= int((prefix << 8 >> (8 * idx)) & 0xFF)
	b := uint8(x >> (8 * idx))
	for ; k > 0; k-- {
		b &= b - 1
	}
	return 8*idx + bits.TrailingZeros8(b)
}

// ReadSlot performs RingORAM's ReadBucket: it consumes exactly one slot of
// node. If want is present in the bucket the real block is removed and
// returned with ok=true; otherwise an unused dummy is consumed. The returned
// slot offset determines the DRAM address touched.
//
// The RingORAM invariant guarantees a usable slot exists whenever
// Accessed < S at entry (the early-reshuffle rule resets before exhaustion).
func (s *Store) ReadSlot(node uint64, want BlockID) (e BlockEntry, slot int, ok bool) {
	b := s.Bucket(node)
	lvl := s.g.NodeLevel(node)
	slots := s.g.Levels[lvl].Slots()
	slot = s.freeSlot(b, slots)
	b.setUsed(slot)
	b.Accessed++
	if i := b.find(want); i >= 0 {
		e = b.Blocks[i]
		b.Blocks = append(b.Blocks[:i], b.Blocks[i+1:]...)
		return e, slot, true
	}
	return BlockEntry{ID: Dummy}, slot, false
}

// NeedsReset reports whether the node has consumed its guaranteed dummy
// budget: after S touches a further ReadSlot may find no unused dummy.
func (s *Store) NeedsReset(node uint64, margin int) bool {
	b, ok := s.peek(node)
	if !ok {
		return false
	}
	lvl := s.g.NodeLevel(node)
	return b.Accessed >= s.g.Levels[lvl].S-margin
}

// ResetPull removes and returns all valid real blocks from node, modelling
// ResetBucket's pull step (the DRAM traffic is padded to Z reads by the
// caller for obliviousness). The bucket's access state is cleared. The
// returned slice shares the bucket's storage, which the bucket keeps for
// its next WriteBucket: it is valid only until node is written again.
func (s *Store) ResetPull(node uint64) []BlockEntry {
	b := s.Bucket(node)
	blocks := b.Blocks
	b.Blocks = b.Blocks[:0]
	b.clearUsed()
	return blocks
}

// WriteBucket installs blocks into node after a reset. len(blocks) must not
// exceed the level's Z.
func (s *Store) WriteBucket(node uint64, blocks []BlockEntry) {
	lvl := s.g.NodeLevel(node)
	if len(blocks) > s.g.Levels[lvl].Z {
		panic(fmt.Sprintf("otree: writing %d blocks into Z=%d bucket", len(blocks), s.g.Levels[lvl].Z))
	}
	b := s.Bucket(node)
	b.Blocks = append(b.Blocks[:0], blocks...)
	b.clearUsed()
}

// StoreState is the flat checkpoint form of a Store: one entry per
// materialized bucket in ascending node order, held in parallel arrays
// instead of one struct per bucket, so encoding it is a handful of slice
// writes and the encoded bytes are a function of the state alone.
type StoreState struct {
	Nodes    bitpack.Uint64s // materialized buckets, ascending
	Accessed bitpack.Uint32s // per bucket: touches since its last reset
	Counts   bitpack.Uint32s // per bucket: valid real blocks
	IDs      bitpack.Uint64s // the buckets' real blocks, concatenated in node order
	Vals     bitpack.Uint64s
	// Used holds the consumed-slot bitset of every bucket with
	// Accessed > 0, in node order, ceil(slots/64) words each; a bucket's
	// set bits number exactly its Accessed, so the others need none.
	Used bitpack.Uint64s
}

// usedWords is the bitset length of a bucket at level lvl.
func (s *Store) usedWords(lvl int) int { return (s.g.Levels[lvl].Slots() + 63) / 64 }

// State exports every materialized bucket in flat form. The arrays are
// fresh copies.
func (s *Store) State() StoreState {
	nodes := make([]uint64, 0, s.Materialized())
	for node, b := range s.top {
		if b != nil {
			nodes = append(nodes, uint64(node))
		}
	}
	resident := len(nodes)
	for node := range s.buckets {
		nodes = append(nodes, node)
	}
	// Resident nodes precede every mapped node (EnableResidentTop moves
	// the whole dense range out of the map), so sorting the tail sorts all.
	slices.Sort(nodes[resident:])
	st := StoreState{
		Nodes:    nodes,
		Accessed: make([]uint32, len(nodes)),
		Counts:   make([]uint32, len(nodes)),
	}
	total := 0
	for _, node := range nodes {
		b, _ := s.peek(node)
		total += len(b.Blocks)
	}
	st.IDs = make([]uint64, 0, total)
	st.Vals = make([]uint64, 0, total)
	for i, node := range nodes {
		b, _ := s.peek(node)
		st.Accessed[i] = uint32(b.Accessed)
		st.Counts[i] = uint32(len(b.Blocks))
		for _, e := range b.Blocks {
			st.IDs = append(st.IDs, uint64(e.ID))
			st.Vals = append(st.Vals, e.Val)
		}
		if b.Accessed > 0 {
			for w := 0; w < s.usedWords(s.g.NodeLevel(node)); w++ {
				st.Used = append(st.Used, b.usedWord(w))
			}
		}
	}
	return st
}

// Restore replaces the store's contents with a previously exported State,
// after checking it describes a legal state of this tree; on error the
// store is unchanged. A configured resident top is kept (and repopulated
// from the state).
func (s *Store) Restore(st StoreState) error {
	n := len(st.Nodes)
	if len(st.Accessed) != n || len(st.Counts) != n || len(st.IDs) != len(st.Vals) {
		return fmt.Errorf("otree: checkpoint arrays disagree: %d nodes, %d accessed, %d counts, %d ids, %d vals",
			n, len(st.Accessed), len(st.Counts), len(st.IDs), len(st.Vals))
	}
	blocks, used := 0, 0
	for i, node := range st.Nodes {
		if node >= s.g.NumNodes() || (i > 0 && node <= st.Nodes[i-1]) {
			return fmt.Errorf("otree: checkpoint bucket %d: node %d out of order or outside tree of %d nodes",
				i, node, s.g.NumNodes())
		}
		lvl := s.g.NodeLevel(node)
		spec := s.g.Levels[lvl]
		if int(st.Counts[i]) > spec.Z || int(st.Accessed[i]) > spec.Slots() {
			return fmt.Errorf("otree: checkpoint node %d holds %d blocks after %d touches, level allows Z=%d of %d slots",
				node, st.Counts[i], st.Accessed[i], spec.Z, spec.Slots())
		}
		blocks += int(st.Counts[i])
		if st.Accessed[i] == 0 {
			continue
		}
		words := s.usedWords(lvl)
		if used+words > len(st.Used) {
			return fmt.Errorf("otree: checkpoint consumed-slot bitsets end at node %d", node)
		}
		set := 0
		for w, v := range st.Used[used : used+words] {
			if rem := spec.Slots() - w*64; rem < 64 && v>>rem != 0 {
				return fmt.Errorf("otree: checkpoint node %d consumed a slot beyond its %d", node, spec.Slots())
			}
			set += bits.OnesCount64(v)
		}
		if set != int(st.Accessed[i]) {
			return fmt.Errorf("otree: checkpoint node %d has %d consumed slots, %d touches", node, set, st.Accessed[i])
		}
		used += words
	}
	if blocks != len(st.IDs) || used != len(st.Used) {
		return fmt.Errorf("otree: checkpoint counts name %d blocks and %d bitset words, arrays hold %d and %d",
			blocks, used, len(st.IDs), len(st.Used))
	}

	s.buckets = make(map[uint64]*Bucket, n)
	for i := range s.top {
		s.top[i] = nil
	}
	// One backing array each for buckets and entries; every bucket's
	// slice is capped at its own length, so a later WriteBucket that grows
	// one reallocates it alone.
	bs := make([]Bucket, n)
	entries := make([]BlockEntry, len(st.IDs))
	for i := range entries {
		entries[i] = BlockEntry{ID: BlockID(st.IDs[i]), Val: st.Vals[i]}
	}
	off, uoff := 0, 0
	for i, node := range st.Nodes {
		b := &bs[i]
		c := int(st.Counts[i])
		b.Blocks = entries[off : off+c : off+c]
		off += c
		b.Accessed = int(st.Accessed[i])
		if b.Accessed > 0 {
			w := s.usedWords(s.g.NodeLevel(node))
			b.used = st.Used[uoff]
			if w > 1 {
				b.usedHi = append([]uint64(nil), st.Used[uoff+1:uoff+w]...)
			}
			uoff += w
		}
		if node < uint64(len(s.top)) {
			s.top[node] = b
		} else {
			s.buckets[node] = b
		}
	}
	return nil
}

// Occupancy returns the number of valid real blocks in node (0 for
// untouched buckets).
func (s *Store) Occupancy(node uint64) int {
	b, ok := s.peek(node)
	if !ok {
		return 0
	}
	return len(b.Blocks)
}

// ForEachBlock calls fn for every valid real block in every materialized
// bucket (testing/invariant checking).
func (s *Store) ForEachBlock(fn func(node uint64, e BlockEntry)) {
	for node, b := range s.top {
		if b == nil {
			continue
		}
		for _, e := range b.Blocks {
			fn(uint64(node), e)
		}
	}
	for node, b := range s.buckets {
		for _, e := range b.Blocks {
			fn(node, e)
		}
	}
}

// TreeTop models the on-chip tree-top cache: the top K levels of the tree
// (bucket payloads and metadata) live in scratchpad, so accesses to them
// cost no DRAM traffic.
type TreeTop struct {
	levels int
}

// NewTreeTop sizes the cache: the largest K such that levels 0..K-1 fit in
// capacityBytes given the geometry's bucket sizes (metadata included, one
// line per node).
func NewTreeTop(g Geometry, capacityBytes uint64) TreeTop {
	var used uint64
	k := 0
	for l := 0; l <= g.Depth; l++ {
		levelBytes := (uint64(1) << l) * uint64(g.Levels[l].Slots()*g.SlotLines+1) * BlockBytes
		if used+levelBytes > capacityBytes {
			break
		}
		used += levelBytes
		k++
	}
	return TreeTop{levels: k}
}

// NewTreeTopLevels pins the cache to exactly k levels (clamped to the
// tree's depth+1), bypassing the byte-budget sizing — the serving-path
// TreeTopLevels knob. k <= 0 disables the cache entirely.
func NewTreeTopLevels(g Geometry, k int) TreeTop {
	if k < 0 {
		k = 0
	}
	if k > g.Depth+1 {
		k = g.Depth + 1
	}
	return TreeTop{levels: k}
}

// Levels returns how many top levels are cached.
func (t TreeTop) Levels() int { return t.levels }

// Cached reports whether a node at the given level is served on-chip.
func (t TreeTop) Cached(level int) bool { return level < t.levels }
