package oram

import (
	"fmt"

	"palermo/internal/otree"
	"palermo/internal/posmap"
	"palermo/internal/stash"
)

// StateLayout identifies the representation of RingState. Layout 2 is the
// flat form: every level's position map, stash and buckets as parallel,
// bit-packed arrays. Layout 1 (never written into the struct, so it
// decodes as 0) held Go maps and one struct per bucket; its checkpoints
// are refused.
const StateLayout = 2

// SpaceState is the serializable protocol state of one hierarchy level in
// flat form: the eviction cadence, the deterministic eviction-leaf counter,
// the level's leaf assignments, the stash bank, and every materialized
// bucket (contents, consumed-slot bitset, touch count — the bucket
// permutation counters RingORAM's reshuffle rule needs).
type SpaceState struct {
	Accesses uint64
	Evictor  uint64
	Leaves   posmap.LevelState
	Stash    stash.State
	Tree     otree.StoreState
}

// RingState is a complete functional checkpoint of a Ring engine. Together
// with the sealed payloads held by the storage backend it is sufficient to
// resume the protocol exactly: the restored engine produces the same leaf
// sequence, evictions, and reshuffles the uninterrupted engine would have.
// It holds no maps, so its gob encoding is a function of the state alone.
//
// The state contains position maps and stash residency — trusted-controller
// secrets. Callers persisting it must seal it first (crypt.Sealer.Blob);
// handing it to an untrusted backend in plaintext would let the backend
// link block ids to their next paths.
type RingState struct {
	Layout       int
	ReqID        uint64
	LastDataLeaf uint64
	RNG          [4]uint64
	Spaces       []SpaceState
}

// State exports the engine's complete functional state for a checkpoint.
// Must be called at quiescence (no access in flight).
func (e *Ring) State() *RingState {
	st := &RingState{
		Layout:       StateLayout,
		ReqID:        e.reqID,
		LastDataLeaf: e.lastDataLeaf,
		RNG:          e.r.State(),
		Spaces:       make([]SpaceState, len(e.spaces)),
	}
	for l, sp := range e.spaces {
		st.Spaces[l] = SpaceState{
			Accesses: sp.Accesses,
			Evictor:  sp.Evictor.State(),
			Leaves:   e.pm.State(l),
			Stash:    sp.Stash.State(),
			Tree:     sp.Store.State(),
		}
	}
	return st
}

// Restore overwrites a freshly built engine (same configuration as the one
// checkpointed) with a previously exported state. A state of another
// layout is refused before anything is restored.
func (e *Ring) Restore(st *RingState) error {
	if st.Layout != StateLayout {
		return fmt.Errorf("oram: checkpoint has engine state layout %d, this engine reads layout %d only (state written by an older version)",
			st.Layout, StateLayout)
	}
	if len(st.Spaces) != len(e.spaces) {
		return fmt.Errorf("oram: checkpoint has %d levels, engine has %d (configuration mismatch)",
			len(st.Spaces), len(e.spaces))
	}
	e.r.Restore(st.RNG)
	e.reqID = st.ReqID
	e.lastDataLeaf = st.LastDataLeaf
	for l, sp := range e.spaces {
		ss := st.Spaces[l]
		if err := e.pm.Restore(l, ss.Leaves); err != nil {
			return err
		}
		if err := sp.Stash.Restore(ss.Stash); err != nil {
			return fmt.Errorf("oram: level %d: %w", l, err)
		}
		if err := sp.Store.Restore(ss.Tree); err != nil {
			return fmt.Errorf("oram: level %d: %w", l, err)
		}
		sp.Accesses = ss.Accesses
		sp.Evictor.Restore(ss.Evictor)
	}
	return nil
}
