package palermo

// The store's shared vocabulary: block geometry and capacity limits, the
// storage-engine selectors, the caps on ShardedStoreConfig's tuning knobs,
// and the TrafficReport every store returns. The store itself is
// ShardedStore (sharded.go); a 1-shard ShardedStore is the single-tree
// store.

import (
	"palermo/internal/backend"
	"palermo/internal/backend/wal"
	"palermo/internal/shard"
)

// BlockSize is the store's block granularity.
const BlockSize = shard.BlockBytes

// MaxBlocks is the largest capacity NewShardedStore and NewClusterNode
// accept (2^40 blocks = 64 TB). Beyond it, tree-depth arithmetic in the
// engine layer would overflow; the constructors reject it eagerly
// instead. Each shard also holds at most 2^36 blocks (its engine
// addresses at most 2^32 data leaves), so a store above 2^36 blocks needs
// enough shards.
const MaxBlocks = 1 << 40

// Block-state backend selectors for ShardedStoreConfig.Engine.
const (
	// BackendMemory keeps sealed blocks in process-private maps — the
	// default, byte-identical to the store's historical behavior. State
	// evaporates on process exit.
	BackendMemory = "memory"
	// BackendWAL persists sealed blocks to Dir through a CRC-framed
	// append-only log with group-committed fsync plus compacted metadata
	// snapshots. A store reopened from the same Dir (and Key) resumes
	// exactly where Close left it; a crash loses at most the un-fsynced
	// group-commit tail. DESIGN.md §7 describes the format and why the
	// persisted view leaks nothing beyond what §VI's untrusted storage
	// already observes.
	BackendWAL = "wal"
	// BackendBlockfile persists sealed blocks to Dir as fixed 512-byte
	// slots in a paged block file (direct I/O where available), with an
	// append-only log carrying only tiny metadata records. Same §7
	// crash-recovery discipline as BackendWAL — torn slots are discarded
	// whole under covering epoch reservations, wrong-key reopens are
	// rejected — but checkpoint compaction is O(metadata) instead of
	// O(stored blocks) and block state lives on disk, not in a map.
	// DESIGN.md §12.
	BackendBlockfile = "blockfile"
)

// MaxPipelineDepth caps ShardedStoreConfig.PipelineDepth: beyond a
// few dozen in-flight accesses the overlap is saturated and only the
// crash-loss window of a durable backend keeps growing.
const MaxPipelineDepth = 64

// MaxTreeTopLevels caps ShardedStoreConfig.TreeTopLevels: 2^24 resident
// buckets is already far past any engine geometry's depth (the engine
// clamps to its actual depth), so larger values are configuration typos.
const MaxTreeTopLevels = 24

// DetectEngine reports the storage engine recorded in dir's manifest,
// defaulting to BackendWAL when the directory has no readable manifest
// yet (matching the historical meaning of "a durable directory"). Tools
// reopening an existing store use it so the operator never has to
// restate the engine the directory was created with.
func DetectEngine(dir string) string {
	if m, err := wal.ReadManifest(dir); err == nil {
		return m.Engine
	}
	return BackendWAL
}

// TrafficReport summarizes the DRAM cost the operations so far would incur.
type TrafficReport struct {
	Reads, Writes       uint64 // store operations
	DRAMReads           uint64 // 64-byte line reads the protocol generated
	DRAMWrites          uint64
	AmplificationFactor float64 // DRAM lines moved per operation
	StashPeak           int

	// TreeTopHits counts protocol line movements the resident tree-top
	// cache absorbed — traffic that never reached DRAM/the backend. The
	// protocol's total line cost is DRAMReads + DRAMWrites + TreeTopHits
	// (bytes saved = 64 * TreeTopHits); AmplificationFactor counts only
	// the lines actually moved.
	TreeTopHits uint64

	// Prefetch planner accounting (ShardedStoreConfig.Prefetch): payload
	// fetches issued at batch admission, how many a read consumed, and how
	// many a superseding write invalidated before use.
	PrefetchIssued, PrefetchUsed, PrefetchStale uint64

	// Blockfile slot-cache accounting (SlotCacheBytes > 0): slots a
	// vectored Get served from the resident cache versus slots that paid a
	// pread. Always zero with the cache off or a non-blockfile engine.
	SlotCacheHits, SlotCacheMisses uint64
}

// add folds one shard's counters and its backend's slot-cache telemetry
// into the report.
func (r *TrafficReport) add(c shard.Counters, be backend.Backend) {
	r.Reads += c.Reads
	r.Writes += c.Writes
	r.DRAMReads += c.DRAMReads
	r.DRAMWrites += c.DRAMWrites
	r.TreeTopHits += c.TreeTopHits
	r.PrefetchIssued += c.PrefetchIssued
	r.PrefetchUsed += c.PrefetchUsed
	r.PrefetchStale += c.PrefetchStale
	r.StashPeak = max(r.StashPeak, c.StashPeak)
	h, m := slotCacheStats(be)
	r.SlotCacheHits += h
	r.SlotCacheMisses += m
}

// amplified returns the report with AmplificationFactor computed from the
// summed counters.
func (r TrafficReport) amplified() TrafficReport {
	if ops := r.Reads + r.Writes; ops > 0 {
		r.AmplificationFactor = float64(r.DRAMReads+r.DRAMWrites) / float64(ops)
	}
	return r
}

// slotCacheStats duck-types a backend's slot-cache telemetry (the
// blockfile engine with SlotCacheBytes > 0); every other backend reports
// (0, 0).
func slotCacheStats(be backend.Backend) (hits, misses uint64) {
	if sc, ok := be.(interface{ SlotCacheStats() (uint64, uint64) }); ok {
		return sc.SlotCacheStats()
	}
	return 0, 0
}
