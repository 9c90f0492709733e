// Package shard partitions an oblivious block store across S independent
// ORAM shards so that independent requests can execute concurrently — the
// service-layer mirror of the paper's observation that ORAM throughput
// scales with request-level parallelism (the PE mesh exploits it inside one
// controller; sharding exploits it across controllers).
//
// Routing is a deterministic pure function of the public block id
// (round-robin striping: shard = id mod S, local = id div S), so the shard
// a request lands on reveals nothing beyond the id the client already
// presented in plaintext at the trusted service boundary. Each shard owns a
// private Ring engine, sealer counter-domain, and derived RNG seed; within
// a shard the backend-visible path sequence stays exactly the single-store
// guarantee (uniform, independent, remapped per access). DESIGN.md §6
// records the full obliviousness argument against internal/security's §VI
// framing.
package shard

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"palermo/internal/backend"
	"palermo/internal/backend/memory"
	"palermo/internal/crypt"
	"palermo/internal/oram"
	"palermo/internal/posmap"
)

// BlockBytes is the shard payload granularity (one cache line).
const BlockBytes = crypt.BlockBytes

// MaxBlocks returns the largest shard-local capacity: the serving engine's
// data tree may have at most posmap.MaxLeaves leaves of Z blocks each
// (2^36 blocks with Z=16). New refuses larger shards.
func MaxBlocks() uint64 { return uint64(oram.PalermoRingConfig().Z) * posmap.MaxLeaves }

// Router deterministically maps public block ids onto shards.
//
// Striping (id mod S) rather than range-partitioning keeps popular
// low-numbered ids — the head of any Zipfian workload — spread across all
// shards instead of piling onto shard 0.
type Router struct {
	shards int
	blocks uint64
}

// NewRouter builds a router over a capacity of blocks ids and S shards.
func NewRouter(blocks uint64, shards int) (Router, error) {
	if blocks == 0 {
		return Router{}, fmt.Errorf("shard: capacity must be > 0 blocks")
	}
	if shards < 1 {
		return Router{}, fmt.Errorf("shard: shard count must be >= 1, got %d", shards)
	}
	if uint64(shards) > blocks {
		return Router{}, fmt.Errorf("shard: %d shards exceed %d blocks (a shard would be empty)", shards, blocks)
	}
	return Router{shards: shards, blocks: blocks}, nil
}

// Shards returns the shard count.
func (r Router) Shards() int { return r.shards }

// Blocks returns the total capacity in blocks.
func (r Router) Blocks() uint64 { return r.blocks }

// Route maps a public block id to its (shard, shard-local id) coordinates.
// It does not range-check id; callers validate against Blocks().
func (r Router) Route(id uint64) (int, uint64) {
	return int(id % uint64(r.shards)), id / uint64(r.shards)
}

// Global inverts Route: the public id of a shard's local block.
func (r Router) Global(s int, local uint64) uint64 {
	return local*uint64(r.shards) + uint64(s)
}

// ShardBlocks returns shard s's capacity: the number of public ids in
// [0, Blocks) congruent to s mod Shards.
func (r Router) ShardBlocks(s int) uint64 {
	if uint64(s) >= r.blocks {
		return 0
	}
	return (r.blocks - uint64(s) + uint64(r.shards) - 1) / uint64(r.shards)
}

// DeriveSeed returns shard i's engine/leaf-selection seed: one splitmix64
// scramble of (base, i) so that adjacent base seeds or adjacent shard
// indices still yield decorrelated per-shard RNG streams.
func DeriveSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// TraceOp is one engine-touching operation in a shard's trace.
type TraceOp struct {
	Local uint64
	Write bool
}

// Trace records the engine-touching operation subsequence a shard served
// and the data-tree leaf each access exposed. Per-shard determinism (the
// §5 contract extended to the service layer) means replaying Ops serially
// into a fresh identically-seeded shard reproduces Leaves exactly.
type Trace struct {
	Ops    []TraceOp
	Leaves []uint64
}

// Counters is a snapshot of a shard's operation and traffic counters.
type Counters struct {
	Reads, Writes         uint64 // store operations served by the engine
	DRAMReads, DRAMWrites uint64 // 64-byte line movements the protocol generated
	StashPeak             int

	// TreeTopHits counts line movements the engine's tree-top cache
	// absorbed (traffic against resident top levels that never left the
	// controller; bytes saved = 64 * TreeTopHits). Since-open, like the
	// prefetch counters below — observability, not durable protocol state.
	TreeTopHits uint64

	// Prefetch planner counters (staged.go): issued backend fetches, how
	// many a read consumed, and how many were discarded as stale because a
	// write to the same block landed between issue and use.
	PrefetchIssued, PrefetchUsed, PrefetchStale uint64
}

// DefaultCheckpointEvery is how many writes a durable shard absorbs
// between automatic checkpoints (which compact either durable engine's
// log).
const DefaultCheckpointEvery = 4096

// Shard is one oblivious store partition: a private Palermo-variant Ring
// engine plus a private sealer counter-domain, with sealed payloads stored
// through a pluggable backend (process-private map by default, durable WAL
// optionally). Not safe for concurrent use — the service layer confines
// each shard to one worker goroutine (the same engine-per-goroutine
// discipline as the sweep runner).
type Shard struct {
	index   int // shard coordinate (the id residue this shard serves)
	stride  int // total shard count (for local -> global id recovery)
	blocks  uint64
	engine  *oram.Ring
	sealer  *crypt.Sealer
	be      backend.Backend
	durable bool

	// Staged-execution state (staged.go). Until EnablePipeline, ioq is nil
	// and the shard runs the serial executor.
	ioq      chan ioReq
	resq     chan ioRes // FIFO access results (Wait order == Begin order)
	ioDone   chan struct{}
	vbe      backend.VectorBackend
	beginSeq uint64
	waitSeq  uint64
	ioErr    error // first I/O-stage failure: the shard wedges fail-fast

	// Parallel seal/unseal pool (crypto.go). Until EnableCryptoPool,
	// cpool is nil and all crypto runs inline on the owner goroutine.
	cpool *cryptoPool

	// Prefetch planner state (staged.go). Until EnablePrefetch, pfq is nil
	// and PrefetchRead is a no-op. All fields owner-confined except pfq,
	// which the I/O goroutine publishes prefetched payloads through.
	pfq           chan ioRes
	pfWindow      int
	pfIssuedQ     []pfIssue           // issue-order FIFO (matches pfq result order)
	pfParked      map[uint64][]pfSlot // results drained for other locals
	pfPending     map[uint64]int      // issued-not-yet-consumed count per local
	pfVer         map[uint64]uint64   // bumped by a write while a prefetch is pending
	pfOutstanding int
	pfIssuedN     uint64
	pfUsedN       uint64
	pfStaleN      uint64

	ckptEvery uint64 // writes between automatic checkpoints (durable only)
	sinceCkpt uint64
	closed    bool
	retired   bool // surrendered by a completed migration: checkpoints become no-ops (migrate.go)

	// Migration tee state (migrate.go): while teeOn, every sealed write is
	// also appended to teeBuf for the in-flight migration's tail.
	teeOn  bool
	teeBuf []SealedBlock

	reads, writes      uint64
	trafficR, trafficW uint64
	topHitsBase        uint64 // checkpointed TopHits (engine counts since open)

	trace *Trace
}

// shardState is the gob-encoded controller metadata a durable backend
// checkpoints: the full ORAM engine state in its flat layout (leaf tables,
// stash residents, bucket contents and permutation counters as arrays;
// oram.StateLayout) plus the sealer counter and the shard's served-traffic
// counters. It is sealed before it leaves the trusted
// boundary — it contains position maps, which the untrusted backend must
// never see in plaintext.
type shardState struct {
	Index, Stride int
	Blocks        uint64
	SealEpoch     uint64
	Reads, Writes uint64
	TrafficR      uint64
	TrafficW      uint64
	TopHits       uint64 // tree-top-absorbed lines (TrafficR/W's missing half)
	Engine        *oram.RingState
}

// New builds shard index of stride total shards with the given local
// capacity and the exact engine seed to use (callers derive per-shard
// seeds with DeriveSeed). All shards share the AES key; IV uniqueness
// across shards holds because blocks are sealed under their global id
// (disjoint across shards), so independent per-shard epoch counters can
// never collide on an (addr, epoch) pair.
//
// be supplies sealed-payload storage; nil selects the default in-memory
// backend (the pre-backend behavior, byte for byte). A durable backend
// that recovered a checkpoint and/or a log tail is folded in here: the
// engine restores the checkpointed metadata exactly, then replays the
// tail's writes through the full protocol so metadata and payloads
// re-converge (see Close for what a clean shutdown persists).
func New(index, stride int, blocks uint64, key []byte, engineSeed uint64, be backend.Backend) (*Shard, error) {
	if index < 0 || stride < 1 || index >= stride {
		return nil, fmt.Errorf("shard: invalid coordinates index=%d stride=%d", index, stride)
	}
	if blocks == 0 {
		return nil, fmt.Errorf("shard: shard %d has zero capacity", index)
	}
	sealer, err := crypt.NewSealer(key)
	if err != nil {
		return nil, err
	}
	cfg := oram.PalermoRingConfig()
	cfg.NLines = blocks
	cfg.Seed = engineSeed
	// Nothing in the serving path replays per-access DRAM address lists —
	// shards consume only the plan's counts, value, and leaf — so the
	// engine runs in count-only traffic mode and skips the per-access
	// address-slice growth (the simulator keeps full address plans).
	cfg.CountTraffic = true
	engine, err := oram.NewRing(cfg)
	if err != nil {
		return nil, err
	}
	if engine.Config().DataSlotLines != 1 {
		// The shard stores one sealed payload per engine PA, so the staged
		// executor's FetchSet ids coincide with shard-local ids only at
		// slot width 1. A wider engine here would silently split the read
		// and write key spaces — refuse loudly instead.
		return nil, fmt.Errorf("shard: engine DataSlotLines must be 1, got %d", engine.Config().DataSlotLines)
	}
	if be == nil {
		be = memory.New()
	}
	s := &Shard{
		index:     index,
		stride:    stride,
		blocks:    blocks,
		engine:    engine,
		sealer:    sealer,
		be:        be,
		durable:   be.Durable(),
		ckptEvery: DefaultCheckpointEvery,
	}
	meta, metaEpoch, tail := be.Recovered()
	if meta != nil || len(tail) > 0 {
		if err := s.recover(meta, metaEpoch, tail); err != nil {
			return nil, err
		}
	}
	if be.Durable() && meta == nil {
		// Establish a sealed snapshot the moment a durable directory has
		// none — at creation, and again if a crash interrupted the
		// creation checkpoint itself (tail recovered, no snapshot yet).
		// Every later open then runs the checkpoint-decode key check, so a
		// wrong key fails loudly instead of opening sealed payloads into
		// silent garbage plaintext (AES-CTR carries no integrity).
		if err := s.checkpoint(); err != nil {
			be.Close()
			return nil, err
		}
	}
	return s, nil
}

// SetCheckpointEvery tunes how many writes pass between automatic
// checkpoints, which compact the durable engine's log (0 disables them;
// Close still checkpoints). Call before the shard starts serving.
func (s *Shard) SetCheckpointEvery(n uint64) { s.ckptEvery = n }

// SetTreeTopLevels pins the engine's tree-top cache to exactly k levels per
// space (k <= 0 keeps the byte-budget default). Purely a traffic-accounting
// change — leaf traces, payloads, and checkpoints are bit-identical at any
// k (DESIGN.md §10) — but call it before the shard starts serving so
// counter snapshots are taken against one consistent setting.
func (s *Shard) SetTreeTopLevels(k int) {
	if k > 0 {
		s.engine.SetTopLevels(k)
	}
}

// DataLeaves returns the data-tree leaf count of the shard's engine (the
// modulus for uniformity analysis of recorded leaf traces).
func (s *Shard) DataLeaves() uint64 {
	return s.engine.Space(0).Geo.NumLeaves()
}

// metaAddr is the shard's reserved sealing address for checkpoint blobs:
// counted down from ^0 per shard so it can never collide with a block's
// global id (capped at 2^40) and never collides across shards sharing one
// key even though their epoch domains overlap.
func (s *Shard) metaAddr() uint64 { return ^uint64(0) - uint64(s.index) }

// Blocks returns the shard-local capacity.
func (s *Shard) Blocks() uint64 { return s.blocks }

// EnableTrace starts recording the operation/leaf trace. Call before the
// shard starts serving (it is owned by the worker afterwards).
func (s *Shard) EnableTrace() { s.trace = &Trace{} }

// Trace returns the recorded trace (nil unless EnableTrace was called).
// Only safe once the shard is quiesced (service closed or via Sync).
func (s *Shard) Trace() *Trace { return s.trace }

// Write stores a 64-byte block obliviously under the shard-local id.
//
// Errors here surface verbatim through the public Store/ShardedStore API,
// so they carry the palermo: prefix and name the global (public) block id,
// never the shard-local one.
func (s *Shard) Write(local uint64, data []byte) error {
	if s.ioq != nil {
		// Staged executor owns the backend: route through it (Begin+Wait
		// back to back is the depth-1 schedule of the pipeline).
		a, err := s.BeginWrite(local, data)
		if err != nil {
			return err
		}
		_, err = a.Wait()
		return err
	}
	if local >= s.blocks {
		return fmt.Errorf("palermo: internal: block %d outside shard %d capacity %d", s.Global(local), s.index, s.blocks)
	}
	if len(data) != BlockBytes {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockBytes, len(data))
	}
	global := s.Global(local)
	ct, epoch, err := s.sealer.Seal(global, data)
	if err != nil {
		return err
	}
	if err := s.be.Put(local, backend.Sealed{Ct: ct, Epoch: epoch}); err != nil {
		return fmt.Errorf("palermo: backend write of block %d: %w", global, err)
	}
	s.teeWrite(local, ct, epoch)
	plan := s.engine.Access(local, true, epoch)
	s.writes++
	s.trafficR += uint64(plan.Reads())
	s.trafficW += uint64(plan.Writes())
	s.record(local, true, plan.DataLeaf)
	return s.maybeCheckpoint(global)
}

// maybeCheckpoint runs the deterministic compaction trigger after a
// durable write. Compact only once the log tail is also a meaningful
// fraction of the stored blocks: a snapshot rewrites every block, so a
// pure write-count trigger would cost O(store size) I/O every ckptEvery
// writes on a populated store. This keeps compaction I/O amortized O(1)
// per logged write. Under the pipeline, beLen is a queue barrier, so the
// trigger fires at exactly the same points of the operation stream as the
// serial executor.
func (s *Shard) maybeCheckpoint(global uint64) error {
	if s.ckptEvery == 0 || !s.durable {
		return nil
	}
	s.sinceCkpt++
	if s.sinceCkpt >= s.ckptEvery && s.sinceCkpt*4 >= uint64(s.beLen()) {
		if err := s.checkpoint(); err != nil {
			return fmt.Errorf("palermo: checkpoint after block %d: %w", global, err)
		}
	}
	return nil
}

// Read fetches a block obliviously by shard-local id. Unwritten blocks read
// as zeros after a full-protocol access.
func (s *Shard) Read(local uint64) ([]byte, error) {
	if s.ioq != nil {
		a, err := s.BeginRead(local)
		if err != nil {
			return nil, err
		}
		return a.Wait()
	}
	if local >= s.blocks {
		return nil, fmt.Errorf("palermo: internal: block %d outside shard %d capacity %d", s.Global(local), s.index, s.blocks)
	}
	plan := s.engine.Access(local, false, 0)
	s.reads++
	s.trafficR += uint64(plan.Reads())
	s.trafficW += uint64(plan.Writes())
	s.record(local, false, plan.DataLeaf)
	sb, ok := s.be.Get(local)
	if !ok {
		return make([]byte, BlockBytes), nil
	}
	if plan.Val != sb.Epoch {
		return nil, fmt.Errorf("palermo: protocol state diverged for block %d (epoch %d != %d)",
			s.Global(local), plan.Val, sb.Epoch)
	}
	return s.sealer.Open(s.Global(local), sb.Epoch, sb.Ct)
}

// Global returns the public id of a shard-local block.
func (s *Shard) Global(local uint64) uint64 {
	return local*uint64(s.stride) + uint64(s.index)
}

// Snapshot returns the shard's counters. Must run on the owning worker
// goroutine (serve.Service.Sync) or after quiescence.
func (s *Shard) Snapshot() Counters {
	return Counters{
		Reads: s.reads, Writes: s.writes,
		DRAMReads: s.trafficR, DRAMWrites: s.trafficW,
		StashPeak:      s.engine.StashMax(0),
		TreeTopHits:    s.topHitsBase + s.engine.TopHits(),
		PrefetchIssued: s.pfIssuedN, PrefetchUsed: s.pfUsedN, PrefetchStale: s.pfStaleN,
	}
}

// checkpoint seals the shard's complete controller metadata (sealMeta) and
// hands it to the backend together with an implicit copy of every sealed
// block (Backend.Checkpoint compacts the log around it).
func (s *Shard) checkpoint() error {
	// A retired shard (surrendered by migration) must never seal another
	// checkpoint blob: the new owner continues this shard's sealing-epoch
	// counter, so a farewell blob here would reuse its next IV (migrate.go).
	if !s.durable || s.retired {
		return nil
	}
	ct, blobEpoch, err := s.sealMeta()
	if err != nil {
		return err
	}
	if s.ioq != nil {
		// Barrier through the I/O stage: every put queued ahead is applied
		// before the backend snapshots, so the sealed engine state and the
		// persisted block set describe the same operation-stream point.
		if res := s.ioRound(ioReq{kind: ioCheckpoint, meta: ct, metaEpoch: blobEpoch}); res.err != nil {
			return res.err
		}
	} else if err := s.be.Checkpoint(ct, blobEpoch); err != nil {
		return err
	}
	s.sinceCkpt = 0
	return nil
}

// sealMeta reserves the next sealing epoch for a metadata blob — before
// the state is encoded, so the encoded SealEpoch already covers it and a
// restored sealer can never re-issue the blob's IV — and returns the
// sealed encoding of the shard's complete controller metadata under it.
// The engine state is flat arrays, so equal states encode to equal bytes.
func (s *Shard) sealMeta() ([]byte, uint64, error) {
	blobEpoch := s.sealer.Epoch() + 1
	if blobEpoch >= 1<<40 {
		return nil, 0, fmt.Errorf("shard: sealing counter %d exhausted the 40-bit IV field; re-key the store", blobEpoch)
	}
	s.sealer.SetEpoch(blobEpoch)
	st := shardState{
		Index: s.index, Stride: s.stride, Blocks: s.blocks,
		SealEpoch: blobEpoch,
		Reads:     s.reads, Writes: s.writes,
		TrafficR: s.trafficR, TrafficW: s.trafficW,
		TopHits: s.topHitsBase + s.engine.TopHits(),
		Engine:  s.engine.State(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, 0, fmt.Errorf("shard: encode checkpoint: %w", err)
	}
	if buf.Len() > crypt.MaxBlobBytes {
		return nil, 0, fmt.Errorf("shard: checkpoint state is %d bytes, beyond the %d-byte sealing span (shard too populated for durable checkpoints)",
			buf.Len(), crypt.MaxBlobBytes)
	}
	return s.sealer.Blob(s.metaAddr(), blobEpoch, buf.Bytes()), blobEpoch, nil
}

// recover folds a durable backend's recovered state into the freshly built
// shard: restore the checkpointed engine/sealer/counters exactly, then
// replay the log tail's writes through the full ORAM protocol so the
// engine's per-block epochs re-converge with the recovered payloads. The
// replayed accesses draw fresh (deterministic) leaves — recovery is a new
// protocol history, not a replay of the lost one, which is exactly what
// obliviousness requires (DESIGN.md §7).
func (s *Shard) recover(meta []byte, metaEpoch uint64, tail []backend.TailOp) error {
	if meta != nil {
		if metaEpoch >= 1<<40 || len(meta) > crypt.MaxBlobBytes {
			// Out of the sealing scheme's domain: no shard this code built
			// could have written it. Surface the corrupt-store error path
			// instead of tripping crypt's internal-invariant panics.
			return fmt.Errorf("shard: checkpoint metadata out of range (epoch %d, %d bytes): corrupt store", metaEpoch, len(meta))
		}
		plain := s.sealer.Blob(s.metaAddr(), metaEpoch, meta)
		var st shardState
		if err := gob.NewDecoder(bytes.NewReader(plain)).Decode(&st); err != nil {
			return fmt.Errorf("shard: checkpoint undecodable (wrong key or corrupt store): %w", err)
		}
		if st.Index != s.index || st.Stride != s.stride || st.Blocks != s.blocks {
			return fmt.Errorf("shard: checkpoint is for shard %d/%d over %d blocks, opened as %d/%d over %d",
				st.Index, st.Stride, st.Blocks, s.index, s.stride, s.blocks)
		}
		if err := s.engine.Restore(st.Engine); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		s.sealer.SetEpoch(st.SealEpoch)
		s.reads, s.writes = st.Reads, st.Writes
		s.trafficR, s.trafficW = st.TrafficR, st.TrafficW
		s.topHitsBase = st.TopHits
	}
	replayed := uint64(0)
	for _, op := range tail {
		if op.Local == backend.EpochReserveLocal {
			// Epoch reservation from an interrupted checkpoint: advance the
			// sealer so the reserved IV is never re-issued; no block moved.
			if op.Epoch > s.sealer.Epoch() {
				s.sealer.SetEpoch(op.Epoch)
			}
			continue
		}
		if op.Local >= s.blocks {
			return fmt.Errorf("shard: recovered write to block %d outside shard %d capacity %d",
				op.Local, s.index, s.blocks)
		}
		plan := s.engine.Access(op.Local, true, op.Epoch)
		s.writes++
		replayed++
		s.trafficR += uint64(plan.Reads())
		s.trafficW += uint64(plan.Writes())
		if op.Epoch > s.sealer.Epoch() {
			s.sealer.SetEpoch(op.Epoch)
		}
	}
	// The replayed records are still in the log: prime the compaction
	// counter with them so a crash-looping service (always fewer than
	// CheckpointEvery writes per life) cannot grow the log — and the tail
	// replay time — without bound across restarts.
	s.sinceCkpt = replayed
	return nil
}

// Close checkpoints the shard's metadata (durable backends only) and
// releases the backend. After a clean Close, reopening the same directory
// restores the shard bit-exactly: payloads, protocol state, and traffic
// counters. Idempotent. Both the checkpoint's and the backend's close
// errors are surfaced — a wedged backend reports its root-cause error
// through Close, which must not be masked by the checkpoint's generic
// closed-guard failure.
func (s *Shard) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	ckErr := s.checkpoint()
	var clErr error
	if s.ioq != nil {
		clErr = s.ioRound(ioReq{kind: ioClose}).err
		<-s.ioDone
		if s.cpool != nil {
			// The I/O loop has exited and every access is resolved, so no
			// job is outstanding: the workers drain and exit.
			s.cpool.close()
			s.cpool = nil
		}
	} else {
		clErr = s.be.Close()
	}
	return errors.Join(ckErr, clErr)
}

func (s *Shard) record(local uint64, write bool, leaf uint64) {
	if s.trace == nil {
		return
	}
	s.trace.Ops = append(s.trace.Ops, TraceOp{Local: local, Write: write})
	s.trace.Leaves = append(s.trace.Leaves, leaf)
}
