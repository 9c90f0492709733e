package oram

import (
	"fmt"

	"palermo/internal/otree"
)

// This file splits Ring.Access into the explicit three-stage form the
// pipelined serving layer drives:
//
//	Plan  — bind the request, assign its commit-order id, and expose the
//	        backend-visible block set as an id vector (PlanAccess/FetchSet).
//	Fetch — the caller moves the vector through the storage backend
//	        (backend.VectorBackend.GetMany/PutMany); the engine is not
//	        involved, so this stage is free to run as an awaitable I/O
//	        unit on another goroutine.
//	Apply — the full deterministic engine transition: posmap lookups and
//	        remaps, slot selection, stash merge, eviction, reshuffles
//	        (StagedAccess.Apply).
//
// Determinism contract: the engine's state evolution (leaf draws, slot
// permutation draws, stash motion) happens entirely inside Apply, and the
// caller executes Plan(k); Apply(k); Plan(k+1); Apply(k+1); ... on one
// goroutine in commit order — exactly the operation order of the serial
// Access. The only thing a pipeline overlaps is the Fetch stage of access
// k with the Apply crypto of access k (and the commit of access k with the
// whole engine stage of access k+1), so per-shard leaf traces, counters,
// and checkpoints are bit-identical to the serial engine at any pipeline
// depth. The differential suite enforces this.

// StagedAccess is one access between its Plan and Apply stages. It is a
// value type so the serial Access composition stays allocation-free; the
// zero value is invalid.
type StagedAccess struct {
	e     *Ring
	reqID uint64
	pa    uint64
	write bool
	val   uint64
	done  bool
}

// PlanAccess begins a staged access: validates the PA, claims the next
// commit-order request id, and returns the handle whose FetchSet names the
// blocks the storage backend must move for this access. No engine state
// beyond the request counter changes until Apply.
func (e *Ring) PlanAccess(pa uint64, write bool, val uint64) StagedAccess {
	if pa >= e.cfg.NLines {
		panic(fmt.Sprintf("oram: PA %d outside protected space of %d lines", pa, e.cfg.NLines))
	}
	e.reqID++
	return StagedAccess{e: e, reqID: e.reqID, pa: pa, write: write, val: val}
}

// FetchSet appends the backend-visible block-id vector of this access to
// dst and returns it: the data-space blocks whose sealed payloads the
// storage backend serves. The recursive posmap levels are engine-resident
// state (their storage cost is modeled, not materialized), so the vector
// is the access's data block group — one id per DataSlotLines line group.
func (op *StagedAccess) FetchSet(dst []uint64) []uint64 {
	return append(dst, op.pa/uint64(op.e.cfg.DataSlotLines))
}

// Write reports whether the staged access is a write.
func (op *StagedAccess) Write() bool { return op.write }

// Apply executes the engine transition of the staged access — the posmap
// remaps, path reads, stash merge, and evictions of every hierarchy level,
// in exactly the operation order of the serial Access — and returns the
// traffic plan. Apply must run on the engine's owner goroutine, in
// PlanAccess order, exactly once.
func (op *StagedAccess) Apply() *Plan {
	if op.done {
		panic("oram: StagedAccess applied twice")
	}
	op.done = true
	e := op.e
	plan := &Plan{ReqID: op.reqID, PA: op.pa, Write: op.write, Levels: make([]LevelAccess, len(e.spaces))}
	groupIdx := op.pa / uint64(e.cfg.DataSlotLines)
	for l := len(e.spaces) - 1; l >= 0; l-- {
		idx := e.pm.Index(l, groupIdx)
		if l == 0 {
			plan.FromStash = e.spaces[0].Stash.Contains(otree.BlockID(idx))
		}
		la, got := e.accessLevel(l, idx, l == 0 && op.write, op.val)
		plan.Levels[l] = la
		if l == 0 {
			plan.Val = got
		}
	}
	plan.DataLeaf = e.lastDataLeaf
	e.fillStashAfter(plan)
	return plan
}
