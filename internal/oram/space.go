package oram

import (
	"palermo/internal/otree"
	"palermo/internal/rng"
	"palermo/internal/stash"
)

// Space bundles the per-level state every tree-based protocol needs: the
// tree geometry and bucket store, the level's stash bank, its tree-top
// cache, and the deterministic eviction counter.
type Space struct {
	Level   int
	Geo     otree.Geometry
	Store   *otree.Store
	Stash   *stash.Stash
	Top     otree.TreeTop
	Evictor *otree.BitRevCounter

	Accesses uint64 // accesses to this space (drives the A-period eviction)

	// CountOnly elides DRAM address materialization: phases carry line
	// counts (Phase.NR/NW) instead of address lists. The serving engine
	// sets it — nothing there replays addresses — so the hot path skips
	// the per-access slice growth; the simulator keeps full plans.
	CountOnly bool

	// TopHits counts the 64-byte line movements the tree-top cache
	// absorbed (traffic the protocol generated against levels resident
	// on-chip/in the per-shard cache, which therefore never reached DRAM
	// or the backend). Bytes saved = 64 * TopHits.
	TopHits uint64

	pathBuf  []uint64           // per-access path scratch (engine-per-goroutine rule)
	evictBuf []otree.BlockEntry // per-bucket eviction scratch, same rule
}

// NewSpace builds a space over the given geometry.
// HardwareStashTags is the Table III per-level stash budget.
const HardwareStashTags = 256

func NewSpace(level int, g otree.Geometry, treeTopBytes uint64, r *rng.Rand) *Space {
	st := stash.New()
	st.SetCapacity(HardwareStashTags)
	sp := &Space{
		Level:   level,
		Geo:     g,
		Store:   otree.NewStore(g, r),
		Stash:   st,
		Top:     otree.NewTreeTop(g, treeTopBytes),
		Evictor: otree.NewBitRevCounter(g.Depth),
	}
	sp.Store.EnableResidentTop(sp.Top.Levels())
	return sp
}

// SetTopLevels pins the space's tree-top cache to exactly k levels
// (overriding the byte-budget sizing) and extends the bucket store's dense
// resident range to match. Traffic emission is the only thing the cache
// gates — protocol state transitions never consult it — so any k yields
// bit-identical leaf sequences, stash states, and checkpoint bytes.
func (sp *Space) SetTopLevels(k int) {
	sp.Top = otree.NewTreeTopLevels(sp.Geo, k)
	sp.Store.EnableResidentTop(sp.Top.Levels())
}

// path fills the space's scratch path buffer for leaf (index = level).
func (sp *Space) path(leaf uint64) []uint64 {
	sp.pathBuf = sp.Geo.PathNodes(sp.pathBuf[:0], leaf)
	return sp.pathBuf
}

// emitSlotRead accounts one logical slot read of node at level lvl
// (SlotLines consecutive lines): tree-top-cached levels count as cache
// hits, count-only mode bumps the phase counter, address mode appends the
// DRAM addresses.
func (sp *Space) emitSlotRead(ph *Phase, lvl int, node uint64, slot int) {
	lines := sp.Geo.SlotLines
	if sp.Top.Cached(lvl) {
		sp.TopHits += uint64(lines)
		return
	}
	if sp.CountOnly {
		ph.NR += lines
		return
	}
	base := sp.Geo.SlotAddr(node, slot)
	for k := 0; k < lines; k++ {
		ph.Reads = append(ph.Reads, base+uint64(k)*otree.BlockBytes)
	}
}

// emitBucketRead accounts slot reads of slots 0..slots-1 of node (the
// padded whole-bucket pulls of resets and evictions).
func (sp *Space) emitBucketRead(ph *Phase, lvl int, node uint64, slots int) {
	lines := slots * sp.Geo.SlotLines
	if sp.Top.Cached(lvl) {
		sp.TopHits += uint64(lines)
		return
	}
	if sp.CountOnly {
		ph.NR += lines
		return
	}
	for s := 0; s < slots; s++ {
		base := sp.Geo.SlotAddr(node, s)
		for k := 0; k < sp.Geo.SlotLines; k++ {
			ph.Reads = append(ph.Reads, base+uint64(k)*otree.BlockBytes)
		}
	}
}

// emitBucketWrite accounts slot writes of slots 0..slots-1 of node (the
// fresh re-encryption of a whole bucket on reset/eviction write-back).
func (sp *Space) emitBucketWrite(ph *Phase, lvl int, node uint64, slots int) {
	lines := slots * sp.Geo.SlotLines
	if sp.Top.Cached(lvl) {
		sp.TopHits += uint64(lines)
		return
	}
	if sp.CountOnly {
		ph.NW += lines
		return
	}
	for s := 0; s < slots; s++ {
		base := sp.Geo.SlotAddr(node, s)
		for k := 0; k < sp.Geo.SlotLines; k++ {
			ph.Writes = append(ph.Writes, base+uint64(k)*otree.BlockBytes)
		}
	}
}

// emitMetaRead accounts the node-metadata line read.
func (sp *Space) emitMetaRead(ph *Phase, lvl int, node uint64) {
	if sp.Top.Cached(lvl) {
		sp.TopHits++
		return
	}
	if sp.CountOnly {
		ph.NR++
		return
	}
	ph.Reads = append(ph.Reads, sp.Geo.MetaAddr(node))
}

// emitMetaWrite accounts the node-metadata line rewrite.
func (sp *Space) emitMetaWrite(ph *Phase, lvl int, node uint64) {
	if sp.Top.Cached(lvl) {
		sp.TopHits++
		return
	}
	if sp.CountOnly {
		ph.NW++
		return
	}
	ph.Writes = append(ph.Writes, sp.Geo.MetaAddr(node))
}

// resetNode performs the functional half of ResetBucket (Algorithm 1 lines
// 42-50) on node along the path to leaf: pull the unused real blocks into
// the stash, push back eligible stash blocks, and emit the padded DRAM
// traffic (Z slot reads, full-bucket writes). leafOf supplies the current
// mapped leaf of a block for stash insertion.
func (sp *Space) resetNode(ph *Phase, node uint64, leaf uint64, leafOf func(otree.BlockID) uint64) {
	lvl := sp.Geo.NodeLevel(node)
	spec := sp.Geo.Levels[lvl]

	for _, e := range sp.Store.ResetPull(node) {
		sp.Stash.Put(stash.Entry{ID: e.ID, Leaf: leafOf(e.ID), Val: e.Val})
	}
	sp.evictBuf = sp.Stash.EvictInto(sp.evictBuf, sp.Geo, leaf, lvl, spec.Z)
	sp.Store.WriteBucket(node, sp.evictBuf)

	// Pull traffic is padded to Z slots for obliviousness; push traffic
	// rewrites the whole bucket with fresh encryption.
	sp.emitBucketRead(ph, lvl, node, spec.Z)
	sp.emitBucketWrite(ph, lvl, node, spec.Slots())
	sp.emitMetaWrite(ph, lvl, node) // metadata reset
}

// evictPath performs EvictPath (Algorithm 1 lines 35-40): pull every bucket
// on the deterministic eviction leaf's path into the stash, then push back
// deepest-first so blocks settle as low as possible (pulling the whole path
// before pushing is what lets tree-top residents migrate toward leaves).
func (sp *Space) evictPath(ph *Phase, leafOf func(otree.BlockID) uint64) uint64 {
	g := sp.Evictor.Next()
	for l := 0; l <= sp.Geo.Depth; l++ {
		node := sp.Geo.NodeAt(g, l)
		for _, e := range sp.Store.ResetPull(node) {
			sp.Stash.Put(stashEntry(e, leafOf(e.ID)))
		}
		sp.emitBucketRead(ph, l, node, sp.Geo.Levels[l].Z)
	}
	for l := sp.Geo.Depth; l >= 0; l-- {
		node := sp.Geo.NodeAt(g, l)
		sp.evictBuf = sp.Stash.EvictInto(sp.evictBuf, sp.Geo, g, l, sp.Geo.Levels[l].Z)
		sp.Store.WriteBucket(node, sp.evictBuf)
		sp.emitBucketWrite(ph, l, node, sp.Geo.Levels[l].Slots())
		sp.emitMetaWrite(ph, l, node)
	}
	return g
}

// Layout assigns disjoint physical regions to a set of geometries: bucket
// storage regions first, then metadata regions, each rounded up to a DRAM
// row multiple so trees never share rows.
func Layout(geos []otree.Geometry, rowBytes uint64) []otree.Geometry {
	out := make([]otree.Geometry, len(geos))
	next := uint64(0)
	align := func(v uint64) uint64 {
		if rowBytes == 0 {
			return v
		}
		return (v + rowBytes - 1) / rowBytes * rowBytes
	}
	bases := make([]uint64, len(geos))
	for i, g := range geos {
		bases[i] = next
		next = align(next + g.Footprint())
	}
	for i, g := range geos {
		metaBase := next
		next = align(next + g.NumNodes()*otree.BlockBytes)
		out[i] = g.WithBases(bases[i], metaBase)
	}
	return out
}
