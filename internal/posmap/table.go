package posmap

import (
	"fmt"
	"math/bits"
)

// The paged leaf table. An index splits into (group, chunk, page, entry):
// the directory holds one pointer per 2^22 indices and is allocated when
// the level is attached; groups (1024 chunk pointers, 8 KiB), chunks (64
// page pointers, 512 B) and pages (64 leaves plus an assigned-entry
// bitmap, 264 B) are allocated on first touch. A dense level costs 4.6
// bytes per entry. A sparse one — a full-scale simulated space touched by
// a few thousand requests — pays about one chunk and one page per touched
// region; wider chunks or an eager chunk directory cost the simulator's
// figure runs a third more peak RSS.
//
// Assignment is tracked by a per-page bitmap rather than an in-band
// sentinel leaf: at the MaxLeaves limit every 32-bit value is a valid
// leaf. Whether an entry is assigned decides whether Leaf draws from the
// RNG, so it must be exact for the draw order to be.
const (
	pageBits  = 6  // entries per page: 64
	chunkBits = 6  // pages per chunk: 64
	groupBits = 10 // chunks per group: 1024
	pageMask  = 1<<pageBits - 1
	chunkMask = 1<<chunkBits - 1
	groupMask = 1<<groupBits - 1
)

type page struct {
	set  uint64
	leaf [1 << pageBits]uint32
}

type chunk [1 << chunkBits]*page

type group [1 << groupBits]*chunk

type table struct {
	dir []*group
}

func newTable(entries uint64) table {
	const span = 1 << (pageBits + chunkBits + groupBits)
	return table{dir: make([]*group, (entries+span-1)/span)}
}

func (t *table) get(idx uint64) (uint32, bool) {
	g := t.dir[idx>>(pageBits+chunkBits+groupBits)]
	if g == nil {
		return 0, false
	}
	c := g[(idx>>(pageBits+chunkBits))&groupMask]
	if c == nil {
		return 0, false
	}
	p := c[(idx>>pageBits)&chunkMask]
	if p == nil || p.set&(1<<(idx&pageMask)) == 0 {
		return 0, false
	}
	return p.leaf[idx&pageMask], true
}

func (t *table) put(idx uint64, leaf uint32) {
	p := t.page(idx >> pageBits)
	p.set |= 1 << (idx & pageMask)
	p.leaf[idx&pageMask] = leaf
}

// page returns page number pn, allocating it (and its chunk and group) if
// needed.
func (t *table) page(pn uint64) *page {
	g := t.dir[pn>>(chunkBits+groupBits)]
	if g == nil {
		g = new(group)
		t.dir[pn>>(chunkBits+groupBits)] = g
	}
	c := g[(pn>>chunkBits)&groupMask]
	if c == nil {
		c = new(chunk)
		g[(pn>>chunkBits)&groupMask] = c
	}
	p := c[pn&chunkMask]
	if p == nil {
		p = new(page)
		c[pn&chunkMask] = p
	}
	return p
}

func (t *table) state() LevelState {
	var st LevelState
	for gi, g := range t.dir {
		if g == nil {
			continue
		}
		for ci, c := range g {
			if c == nil {
				continue
			}
			for pi, p := range c {
				if p == nil {
					continue
				}
				st.Pages = append(st.Pages, (uint64(gi)<<groupBits|uint64(ci))<<chunkBits|uint64(pi))
				st.Set = append(st.Set, p.set)
				for set := p.set; set != 0; set &= set - 1 {
					st.Leaves = append(st.Leaves, p.leaf[bits.TrailingZeros64(set)])
				}
			}
		}
	}
	return st
}

// restoreTable rebuilds a table over entries indices from a LevelState,
// checking it against the level's size and leaf count.
func restoreTable(entries, leaves uint64, st LevelState) (table, error) {
	if len(st.Set) != len(st.Pages) {
		return table{}, fmt.Errorf("%d pages but %d bitmaps", len(st.Pages), len(st.Set))
	}
	t := newTable(entries)
	next := 0
	for i, pn := range st.Pages {
		if i > 0 && pn <= st.Pages[i-1] {
			return table{}, fmt.Errorf("page %d out of order", pn)
		}
		set := st.Set[i]
		if set == 0 || pn > (entries-1)>>pageBits || pn<<pageBits+uint64(63-bits.LeadingZeros64(set)) >= entries {
			return table{}, fmt.Errorf("page %d assigns no entry or one beyond the level's %d", pn, entries)
		}
		p := t.page(pn)
		p.set = set
		for ; set != 0; set &= set - 1 {
			if next == len(st.Leaves) {
				return table{}, fmt.Errorf("bitmaps name more entries than the %d leaves", len(st.Leaves))
			}
			leaf := st.Leaves[next]
			if uint64(leaf) >= leaves {
				return table{}, fmt.Errorf("leaf %d outside tree of %d leaves", leaf, leaves)
			}
			p.leaf[bits.TrailingZeros64(set)] = leaf
			next++
		}
	}
	if next != len(st.Leaves) {
		return table{}, fmt.Errorf("bitmaps name %d entries, %d leaves given", next, len(st.Leaves))
	}
	return t, nil
}
