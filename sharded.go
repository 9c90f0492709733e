package palermo

// ShardedStore is the adoption-facing API: an oblivious block store that
// a downstream user can call like a small key-value device. Reads and
// writes of 64-byte blocks execute the full Palermo ORAM protocol over the
// functional engine (real tree, stash, recursive position maps, AES-CTR
// sealing), so the sequence of tree paths a storage backend would observe
// is computationally independent of the keys accessed. Block ids are
// deterministically striped across S independent ORAM shards (each with a
// private Ring engine, sealer counter-domain, and derived seed), and each
// shard is served by a dedicated worker goroutine behind a bounded request
// queue. The store is safe for concurrent use from any number of
// goroutines and its throughput scales with shards × cores; Shards: 1 is
// the single-tree store.
//
//	st, _ := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 20, Shards: 4})
//	defer st.Close()
//	st.Write(42, payload)
//	data, _ := st.Read(42)
//	blocks, _ := st.ReadBatch([]uint64{1, 2, 3, 1}) // the two id-1 reads share one ORAM access
//
// The store tracks the traffic each operation would cost on the modeled
// hardware (TrafficReport), but does not run the timing simulation; use
// Run/the experiment harness for performance studies.
//
// Routing depends only on the public block id, so per-shard obliviousness
// is exactly the single-tree guarantee; DESIGN.md §6 states the argument
// (and what the backend additionally learns: the id's residue mod Shards).

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"palermo/internal/backend"
	"palermo/internal/backend/blockfile"
	"palermo/internal/backend/wal"
	"palermo/internal/serve"
	"palermo/internal/shard"
)

// MaxShards bounds ShardedStoreConfig.Shards: beyond a few thousand
// workers the per-shard trees are tiny and goroutine overhead dominates.
const MaxShards = 1024

// MaxPrefetchDepth caps ShardedStoreConfig.PrefetchDepth, the deep
// planner's look-ahead: beyond a few dozen predicted batches the announce
// window — not the horizon — is the binding resource, so larger values
// are typos.
const MaxPrefetchDepth = 64

// ShardedStoreConfig configures an oblivious store.
type ShardedStoreConfig struct {
	Blocks uint64 // total capacity in 64-byte blocks (default 2^20 = 64 MB)
	Shards int    // independent ORAM shards (default 4; 1 = a single tree)
	Key    []byte // AES key, 16/24/32 bytes (default: a fixed demo key)
	Seed   uint64 // base seed; each shard derives its own (default 1)

	// QueueDepth bounds each shard's request queue (in submissions);
	// a full queue blocks submitters (back-pressure). Default 256.
	QueueDepth int
	// MaxBatch caps how many queued operations one shard worker coalesces
	// into a single dedup window. Default 64.
	MaxBatch int
	// AdmissionDeadline sheds overload: a request that waited in its shard
	// queue longer than this is dropped by the worker *before any engine
	// access* and fails with an error satisfying errors.Is(err, ErrRetry).
	// Because shed requests never reach the ORAM, shedding is invisible in
	// the §6 adversary's view. 0 (the default) disables shedding — queues
	// apply pure back-pressure and every admitted request executes.
	AdmissionDeadline time.Duration

	// Engine selects the storage engine: BackendMemory (default),
	// BackendWAL, or BackendBlockfile. The durable engines require Dir;
	// each shard owns a sub-directory.
	Engine string
	// Dir is the durable store directory (durable engines only). Reopening
	// a populated Dir recovers the persisted state. Its manifest pins
	// Blocks, Shards, and the engine, so reopening with a different
	// geometry fails instead of silently mis-routing ids.
	Dir string
	// CheckpointEvery is the minimum per-shard writes between automatic
	// checkpoints, which compact the durable engine's log (default 4096;
	// <0 disables periodic checkpoints — Close still writes one). On
	// populated shards the checkpoint is additionally deferred until the
	// log tail reaches a quarter of the shard's stored blocks, keeping
	// checkpoint I/O amortized O(1) per write.
	CheckpointEvery int
	// GroupCommit is how many durable-engine log appends share one fsync
	// (default 32; 1 = synchronous durability per write).
	GroupCommit int
	// PipelineDepth is each shard worker's in-flight access window: while
	// access k's backend block vector (and, on a durable engine, its group
	// commit's fsync) is in flight, the worker runs access k+1's engine
	// transition. Depth 1 executes strictly serially; the determinism
	// contract (leaf traces, counters, recovered state) is identical at
	// every depth. Default 2; max MaxPipelineDepth. With GroupCommit 1,
	// fsyncs stay synchronous regardless (the per-write durability
	// promise).
	PipelineDepth int
	// TreeTopLevels pins each shard engine's resident tree-top cache to
	// exactly this many levels (0 keeps the hardware byte-budget default,
	// ~6 levels; max MaxTreeTopLevels). Every path access touches the top
	// levels regardless of the key, so residency is access-pattern-neutral:
	// leaf traces, payloads, and checkpoints are bit-identical at any
	// setting (DESIGN.md §10) — only the DRAM traffic report shrinks
	// (TrafficReport.TreeTopHits counts the absorbed lines).
	TreeTopLevels int
	// Prefetch turns on the batch-admission prefetch planner: each shard
	// worker announces an admitted batch's upcoming reads so their sealed-
	// payload fetches run through the I/O goroutine ahead of the accesses'
	// engine stages (DESIGN.md §10). Requires PipelineDepth > 1 to have
	// any effect. Purely a scheduling change: served payloads, leaf
	// traces, and dedup semantics are identical with it on or off.
	Prefetch bool
	// PrefetchDepth extends the planner's horizon to this many predicted
	// served batches: queued submissions are chunked by the worker's own
	// coalescing rule and each predicted batch's read set is announced
	// before the current batch finishes executing (DESIGN.md §14). 0 or 1
	// keeps the one-batch planner bit-exactly; requires Prefetch,
	// otherwise it is ignored. Max MaxPrefetchDepth. Default 1.
	PrefetchDepth int
	// CryptoWorkers offloads each shard's seal/unseal AES transforms to a
	// bounded worker pool hung off its pipelined executor (capped at
	// GOMAXPROCS per shard; 0 keeps crypto inline on the shard's owner
	// goroutine; requires PipelineDepth > 1, otherwise it is ignored).
	// Workers run only the pure ciphertext↔plaintext transforms with
	// owner-assigned epochs — every engine transition, RNG draw, and
	// counter stays on the owner — so leaf traces, counters, and
	// checkpoint bytes are bit-identical at every worker count
	// (DESIGN.md §12).
	CryptoWorkers int
	// SlotCacheBytes budgets each shard blockfile backend's slot-level
	// read cache (per shard, not total): recently read 512-byte sealed
	// slots stay resident (CLOCK eviction) so repeated reads of hot slots
	// skip the pread. Gets are served from the cache only when the whole
	// vectored run is resident; writes invalidate their slots and
	// checkpoints clear the cache, so served bytes are identical at every
	// budget (DESIGN.md §14). 0 (the default) disables the cache.
	// Requires Engine BackendBlockfile.
	SlotCacheBytes int
}

func (c *ShardedStoreConfig) defaults() {
	if c.Blocks == 0 {
		c.Blocks = 1 << 20
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Key == nil {
		c.Key = []byte("palermo-demo-key")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 2
	}
}

// validate checks c, resolves its engine and applies the defaults: the
// one configuration path of ShardedStore and ClusterNode. A durable
// engine's directory gains (or must match) the manifest pinning Blocks,
// Shards and the engine, so a store reopened with a different geometry
// fails instead of silently mis-routing ids. Returns the id router of the
// validated geometry.
func (c *ShardedStoreConfig) validate() (shard.Router, error) {
	for _, k := range []struct {
		name string
		v    int
		max  int // 0 = unbounded
	}{
		{"PipelineDepth", c.PipelineDepth, MaxPipelineDepth},
		{"TreeTopLevels", c.TreeTopLevels, MaxTreeTopLevels},
		{"PrefetchDepth", c.PrefetchDepth, MaxPrefetchDepth},
		{"CryptoWorkers", c.CryptoWorkers, 0},
		{"QueueDepth", c.QueueDepth, 0},
		{"MaxBatch", c.MaxBatch, 0},
		{"SlotCacheBytes", c.SlotCacheBytes, 0},
	} {
		if k.v < 0 || (k.max > 0 && k.v > k.max) {
			bound := ">= 0"
			if k.max > 0 {
				bound = fmt.Sprintf("in [0, %d]", k.max)
			}
			return shard.Router{}, fmt.Errorf("palermo: %s must be %s, got %d", k.name, bound, k.v)
		}
	}
	c.defaults()
	if c.Blocks > MaxBlocks {
		return shard.Router{}, fmt.Errorf("palermo: Blocks %d exceeds the maximum capacity of %d blocks", c.Blocks, uint64(MaxBlocks))
	}
	if n := len(c.Key); n != 16 && n != 24 && n != 32 {
		return shard.Router{}, fmt.Errorf("palermo: Key must be 16, 24, or 32 bytes (AES-128/192/256), got %d", n)
	}
	if c.Shards < 1 || c.Shards > MaxShards {
		return shard.Router{}, fmt.Errorf("palermo: Shards must be in [1, %d], got %d", MaxShards, c.Shards)
	}
	switch c.Engine {
	case "", BackendMemory:
		if c.Dir != "" {
			return shard.Router{}, fmt.Errorf("palermo: Dir is set but Engine is %q (did you mean Engine: palermo.BackendWAL or palermo.BackendBlockfile?)", c.Engine)
		}
		c.Engine = BackendMemory
	case BackendWAL, BackendBlockfile:
		if c.Dir == "" {
			return shard.Router{}, fmt.Errorf("palermo: Engine %q requires Dir", c.Engine)
		}
	default:
		return shard.Router{}, fmt.Errorf("palermo: unknown Engine %q (want %q, %q, or %q)", c.Engine, BackendMemory, BackendWAL, BackendBlockfile)
	}
	if c.SlotCacheBytes > 0 && c.Engine != BackendBlockfile {
		return shard.Router{}, fmt.Errorf("palermo: SlotCacheBytes requires Engine %q, got %q", BackendBlockfile, c.Engine)
	}
	router, err := shard.NewRouter(c.Blocks, c.Shards)
	if err != nil {
		return shard.Router{}, fmt.Errorf("palermo: %w", err)
	}
	if n := router.ShardBlocks(0); n > shard.MaxBlocks() {
		return shard.Router{}, fmt.Errorf("palermo: %d blocks over %d shards makes shards of %d blocks, beyond the per-shard maximum of %d; use more shards",
			c.Blocks, c.Shards, n, shard.MaxBlocks())
	}
	if c.Dir != "" {
		if err := wal.EnsureManifest(c.Dir, wal.Manifest{Version: wal.ManifestVersion, Blocks: c.Blocks, Shards: c.Shards, Engine: c.Engine}); err != nil {
			return shard.Router{}, fmt.Errorf("palermo: %w", err)
		}
	}
	return router, nil
}

// shardDir is shard i's sub-directory of a durable store directory.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
}

// openShard builds shard i of a validated configuration: it opens the
// shard's backend (none for the memory engine), builds the engine with the
// shard's seed derived from Seed, runs restore when non-nil (a migration's
// import, which must precede the pipeline), and applies the tuning knobs.
// Every shard is built here, so a cluster of nodes is protocol-identical
// to one standalone store.
func (c *ShardedStoreConfig) openShard(router shard.Router, i int, restore func(*shard.Shard) error) (*shard.Shard, backend.Backend, error) {
	var be backend.Backend
	var err error
	switch c.Engine {
	case BackendWAL:
		be, err = wal.Open(shardDir(c.Dir, i), wal.Options{GroupCommit: c.GroupCommit, CommitDepth: c.PipelineDepth})
	case BackendBlockfile:
		be, err = blockfile.Open(shardDir(c.Dir, i), blockfile.Options{GroupCommit: c.GroupCommit, CacheBytes: c.SlotCacheBytes})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("shard %d: %w", i, err)
	}
	sh, err := shard.New(i, c.Shards, router.ShardBlocks(i), c.Key, shard.DeriveSeed(c.Seed, i), be)
	if err != nil {
		if be != nil {
			be.Close()
		}
		return nil, nil, err
	}
	if restore != nil {
		if err := restore(sh); err != nil {
			sh.Retire() // never farewell-checkpoint a half-restored shard
			sh.Close()
			return nil, nil, err
		}
	}
	switch {
	case c.CheckpointEvery < 0:
		sh.SetCheckpointEvery(0)
	case c.CheckpointEvery > 0:
		sh.SetCheckpointEvery(uint64(c.CheckpointEvery))
	}
	sh.SetTreeTopLevels(c.TreeTopLevels)
	sh.EnablePipeline(c.PipelineDepth)
	sh.EnableCryptoPool(c.CryptoWorkers)
	if c.Prefetch {
		sh.EnablePrefetch(max(c.MaxBatch, serveDefaultMaxBatch) * max(c.PrefetchDepth, 1))
	}
	return sh, be, nil
}

// serveDefaultMaxBatch mirrors serve.Config's MaxBatch default for sizing
// the shard prefetch window when the config leaves MaxBatch zero: one
// batch of distinct reads per predicted batch (the one-batch planner never
// declines mid-plan at depth 1). Sizing is a throughput knob, not
// correctness — PrefetchSet declines gracefully past the window.
const serveDefaultMaxBatch = 64

// serveConfig is the service-layer configuration of c.
func (c *ShardedStoreConfig) serveConfig() serve.Config {
	return serve.Config{
		QueueDepth:        c.QueueDepth,
		MaxBatch:          c.MaxBatch,
		PipelineDepth:     c.PipelineDepth,
		Prefetch:          c.Prefetch,
		PrefetchDepth:     c.PrefetchDepth,
		AdmissionDeadline: c.AdmissionDeadline,
	}
}

// ShardedStore is a concurrent oblivious 64-byte-block store. It is also
// the serving core of a ClusterNode: a standalone store owns every shard
// at epoch 0 and never migrates, while a node's store owns the subset its
// manifest assigns and adds or retires shards as they migrate.
type ShardedStore struct {
	cfg    ShardedStoreConfig // validated
	router shard.Router
	node   *ClusterNode // the node this store serves for; nil when standalone

	// mu is the geometry lock. Request paths hold it shared across
	// ownership check + submit + wait, so a call observes one placement:
	// it is either fully executed under the epoch it was checked against
	// or fully rejected. Migration takes it exclusively only for the
	// instants that change placement (marking a shard migrating, flipping
	// the manifest).
	mu      sync.RWMutex
	slots   []*storeSlot // index = shard; nil where the store does not own it
	traceOn bool
	closed  bool

	// retired keeps surrendered shards' drained services and final traces:
	// their service-layer stats and leaf-trace prefixes remain observable
	// after the shard lives elsewhere.
	retired       []*serve.Service
	retiredTraces []LeafTrace

	closeOnce sync.Once
	closeErr  error // first Close outcome, re-returned on later calls
}

// storeSlot is one owned shard: its engine, the single-worker service that
// confines it to one goroutine, and its storage backend (nil for memory).
type storeSlot struct {
	i         int
	sh        *shard.Shard
	svc       *serve.Service
	be        backend.Backend
	migrating bool // cutover in progress: requests are rejected (guarded by mu)
}

// NewShardedStore builds the shards and starts their workers.
func NewShardedStore(cfg ShardedStoreConfig) (*ShardedStore, error) {
	router, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	all := make([]int, cfg.Shards)
	for i := range all {
		all[i] = i
	}
	return openStore(cfg, router, all)
}

// openStore builds a store over the validated cfg that owns the given
// shards. If one fails to open, the shards already open are discarded
// without a farewell checkpoint: nothing was served, so a durable
// directory is left as it was found.
func openStore(cfg ShardedStoreConfig, router shard.Router, owned []int) (*ShardedStore, error) {
	s := &ShardedStore{cfg: cfg, router: router, slots: make([]*storeSlot, cfg.Shards)}
	for _, i := range owned {
		slot, err := s.openSlot(i, nil)
		if err != nil {
			s.discard()
			return nil, fmt.Errorf("palermo: %w", err)
		}
		s.slots[i] = slot
	}
	return s, nil
}

// openSlot builds shard i with openShard (restore, when non-nil, is a
// migration's import) and starts its single-worker service.
func (s *ShardedStore) openSlot(i int, restore func(*shard.Shard) error) (*storeSlot, error) {
	sh, be, err := s.cfg.openShard(s.router, i, restore)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	if s.traceOn {
		sh.EnableTrace()
	}
	s.mu.RUnlock()
	svc := serve.New([]serve.Backend{stagedShard{sh}}, s.cfg.serveConfig())
	return &storeSlot{i: i, sh: sh, svc: svc, be: be}, nil
}

// discard retires every open slot: the failed-open cleanup.
func (s *ShardedStore) discard() {
	for _, slot := range s.slots {
		if slot != nil {
			slot.retire()
		}
	}
}

// do runs fn on the slot's worker, after everything queued ahead of it.
// Once the service is closed it waits the worker out (Close may be
// concurrent) and runs fn directly, which is then race-free.
func (sl *storeSlot) do(fn func()) {
	if sl.svc.Sync(0, fn) != nil {
		sl.svc.WaitClosed()
		fn()
	}
}

// retire stops the slot for good: the shard never seals again (Retire
// suppresses the farewell checkpoint) and its service drains and closes.
func (sl *storeSlot) retire() {
	sl.do(sl.sh.Retire)
	sl.svc.Close()
}

// leafTrace copies the slot's recorded leaf trace on its worker.
func (sl *storeSlot) leafTrace() LeafTrace {
	lt := LeafTrace{Shard: sl.i}
	sl.do(func() {
		lt.NumLeaves = sl.sh.DataLeaves()
		if tr := sl.sh.Trace(); tr != nil {
			lt.Leaves = append([]uint64(nil), tr.Leaves...)
		}
	})
	return lt
}

// stagedShard adapts *shard.Shard to serve.StagedBackend: the shard's
// concrete Access pointer becomes the service-layer Access interface. The
// serve worker only drives the staged methods when the shard's pipeline is
// enabled (PipelineDepth > 1 — both are wired from the same config knob).
type stagedShard struct{ *shard.Shard }

func (s stagedShard) BeginRead(id uint64) (serve.Access, error) {
	return s.Shard.BeginRead(id)
}

func (s stagedShard) BeginWrite(id uint64, data []byte) (serve.Access, error) {
	return s.Shard.BeginWrite(id, data)
}

// Blocks returns the total capacity in blocks.
func (s *ShardedStore) Blocks() uint64 { return s.router.Blocks() }

// Shards returns the shard count.
func (s *ShardedStore) Shards() int { return s.router.Shards() }

// ownedLocked lists the owned shards' slots in ascending shard order.
// Callers hold mu.
func (s *ShardedStore) ownedLocked() []*storeSlot {
	out := make([]*storeSlot, 0, len(s.slots))
	for _, slot := range s.slots {
		if slot != nil {
			out = append(out, slot)
		}
	}
	return out
}

// owned is ownedLocked under the read lock.
func (s *ShardedStore) owned() []*storeSlot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ownedLocked()
}

// routeLocked maps id to its shard and local id, or to the wrong-epoch
// rejection when the store does not serve that shard — which only a
// cluster node's store can lack. Callers hold mu shared.
func (s *ShardedStore) routeLocked(id uint64) (int, uint64, error) {
	i, local := s.router.Route(id)
	if slot := s.slots[i]; slot == nil || slot.migrating {
		return 0, 0, s.node.wrongEpochLocked(i)
	}
	return i, local, nil
}

// checkOp validates one operation's id and, for a write, its block.
func (s *ShardedStore) checkOp(id uint64, data []byte, write bool) error {
	if id >= s.Blocks() {
		return fmt.Errorf("palermo: block %d outside capacity %d", id, s.Blocks())
	}
	if write && len(data) != BlockSize {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(data))
	}
	return nil
}

// Write stores a 64-byte block obliviously under the given block id. Safe
// for concurrent use; writes to the same id from different goroutines are
// serialized by the id's shard worker in arrival order.
func (s *ShardedStore) Write(id uint64, data []byte) error {
	if err := s.checkOp(id, data, true); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, local, err := s.routeLocked(id)
	if err != nil {
		return err
	}
	return s.slots[i].svc.Write(0, local, data)
}

// Read fetches a block obliviously. Reading a never-written block returns a
// zero block (the protocol performs the same path access either way, so
// existence is not observable).
func (s *ShardedStore) Read(id uint64) ([]byte, error) {
	if err := s.checkOp(id, nil, false); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, local, err := s.routeLocked(id)
	if err != nil {
		return nil, err
	}
	return s.slots[i].svc.Read(0, local)
}

// ReadBatch fetches many blocks, submitting each shard's subset as one
// atomic batch: duplicate ids inside the call are served by a single ORAM
// access whose payload fans out to every position. Results are returned in
// input order; on error, the first failure is returned after every
// submitted request has completed.
func (s *ShardedStore) ReadBatch(ids []uint64) ([][]byte, error) {
	for _, id := range ids {
		if err := s.checkOp(id, nil, false); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, len(ids))
	return out, s.batch(ids, nil, out)
}

// WriteBatch stores blocks[i] under ids[i] for every i, submitting each
// shard's subset as one atomic batch. Ordering between entries targeting
// the same id follows their position in the call.
func (s *ShardedStore) WriteBatch(ids []uint64, blocks [][]byte) error {
	if len(ids) != len(blocks) {
		return fmt.Errorf("palermo: WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	for i, id := range ids {
		if err := s.checkOp(id, blocks[i], true); err != nil {
			return err
		}
	}
	return s.batch(ids, blocks, nil)
}

// batch partitions a batch by shard, submits each shard's subset as one
// atomic batch, and waits for every future, scattering read payloads into
// out (when non-nil) by input position; blocks is nil for reads. If any id
// names a shard the store does not serve, the whole batch is rejected
// before anything is submitted: a rejected call executed nothing, so a
// client retry cannot duplicate operations.
func (s *ShardedStore) batch(ids []uint64, blocks [][]byte, out [][]byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	perShard := make([][]serve.Req, len(s.slots))
	perShardPos := make([][]int, len(s.slots))
	for pos, id := range ids {
		i, local, err := s.routeLocked(id)
		if err != nil {
			return err
		}
		req := serve.Req{Op: serve.OpRead, ID: local}
		if blocks != nil {
			req = serve.Req{Op: serve.OpWrite, ID: local, Data: blocks[pos]}
		}
		perShard[i] = append(perShard[i], req)
		perShardPos[i] = append(perShardPos[i], pos)
	}
	futs := make([][]*serve.Future, len(perShard))
	var firstErr error
	for i, reqs := range perShard {
		if len(reqs) == 0 {
			continue
		}
		fs, err := s.slots[i].svc.SubmitBatch(0, reqs)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		futs[i] = fs
	}
	for i, fs := range futs {
		for j, f := range fs {
			data, err := f.Wait()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if out != nil && err == nil {
				out[perShardPos[i][j]] = data
			}
		}
	}
	return firstErr
}

// ServiceStats is the service-layer snapshot ShardedStore.Stats returns:
// completed operations, dedup fan-out hits, and latency summaries.
type ServiceStats = serve.Stats

// LatencySummary is one operation class's latency condensation inside
// ServiceStats (count, mean, bucketed p50/p99 in microseconds).
type LatencySummary = serve.LatencySummary

// Stats returns the service-layer snapshot: completed operations, dedup
// fan-out hits, and latency percentiles. Safe to call at any time. It
// merges the live shards' services with those of shards a node
// surrendered by migration, whose serving history stays counted here.
func (s *ShardedStore) Stats() ServiceStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	svcs := append([]*serve.Service(nil), s.retired...)
	for _, slot := range s.ownedLocked() {
		svcs = append(svcs, slot.svc)
	}
	return serve.MergeStats(svcs)
}

// QueueDepths reports each owned shard's instantaneous request-queue
// occupancy (in queued submissions), in ascending shard order — for a
// standalone store, index = shard. It is a point-in-time gauge for
// operability surfaces, not a synchronized snapshot.
func (s *ShardedStore) QueueDepths() []int {
	var out []int
	for _, slot := range s.owned() {
		out = append(out, slot.svc.QueueDepths()[0])
	}
	return out
}

// FsyncLag aggregates the durable backends' fsync telemetry: how many
// fsyncs the store has issued and the cumulative time spent waiting on
// them. Backends without fsync telemetry (the memory engine) contribute
// zero, so a memory store always reports (0, 0).
func (s *ShardedStore) FsyncLag() (count uint64, total time.Duration) {
	for _, slot := range s.owned() {
		if fs, ok := slot.be.(interface {
			FsyncStats() (uint64, time.Duration)
		}); ok {
			n, d := fs.FsyncStats()
			count += n
			total += d
		}
	}
	return count, total
}

// Snapshot returns Stats and Traffic together. It exists so in-process
// stores and remote Clients satisfy one observation interface
// (internal/loadgen.Target): a Client fetches both in a single wire op,
// and the error reports a lost connection — which an in-process store
// cannot experience, hence always nil here.
func (s *ShardedStore) Snapshot() (ServiceStats, TrafficReport, error) {
	return s.Stats(), s.Traffic(), nil
}

// Traffic aggregates the owned shards' counters into one TrafficReport.
// Shard counters are snapshotted on each shard's own worker (via a queue
// barrier), so the report is consistent with every operation that
// completed before the call; after Close the counters are read directly. A migrated shard's counters move with it, so summing every
// node's Traffic counts each access exactly once.
func (s *ShardedStore) Traffic() TrafficReport {
	var rep TrafficReport
	for _, slot := range s.owned() {
		var c shard.Counters
		slot.do(func() { c = slot.sh.Snapshot() })
		rep.add(c, slot.be)
	}
	return rep.amplified()
}

// EnableTraces starts recording every shard's operation/leaf trace (the
// attacker-visible path randomness each access exposes), including shards
// a node acquires by later migrations. Call before the store starts
// serving; the traces grow without bound, so this is a measurement/audit
// mode, not a production default.
func (s *ShardedStore) EnableTraces() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traceOn = true
	for _, slot := range s.ownedLocked() {
		slot.sh.EnableTrace()
	}
}

// LeafTrace is one shard's recorded serving trace for security analysis:
// the leaf each engine access exposed, and the shard's data-tree leaf
// count (the uniformity modulus).
type LeafTrace struct {
	Shard     int      `json:"shard"`
	NumLeaves uint64   `json:"num_leaves"`
	Leaves    []uint64 `json:"leaves"`
}

// LeafTraces snapshots the leaf trace of every shard the store served, in
// ascending shard order (nil Leaves for shards without EnableTraces).
// Live traces are copied on each shard's own worker goroutine, so the call
// is safe while the store is serving. A node also reports the final traces
// of shards it surrendered by migration, ahead of any later trace of the
// same shard: its trace is the prefix of that shard's protocol history,
// the new owner's the continuation.
func (s *ShardedStore) LeafTraces() []LeafTrace {
	s.mu.RLock()
	out := append([]LeafTrace(nil), s.retiredTraces...)
	slots := s.ownedLocked()
	s.mu.RUnlock()
	for _, slot := range slots {
		out = append(out, slot.leafTrace())
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Shard < out[b].Shard })
	return out
}

// Close stops accepting requests, drains everything already queued,
// flushes and checkpoints each shard's backend on its own worker (all
// shards in parallel), and waits for the workers to exit. Idempotent:
// every call returns the first call's outcome, so a failed checkpoint is
// never swallowed by a retry. Operations submitted after Close return an
// error satisfying errors.Is(err, ErrClosed). With a durable engine, a
// store reopened from the same Dir resumes exactly where Close left it —
// payloads, protocol state, and traffic counters.
func (s *ShardedStore) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		var svcs []*serve.Service
		for _, slot := range s.ownedLocked() {
			svcs = append(svcs, slot.svc)
		}
		svcs = append(svcs, s.retired...)
		s.mu.Unlock()
		errs := make([]error, len(svcs))
		var wg sync.WaitGroup
		for i, svc := range svcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = svc.Close()
			}()
		}
		wg.Wait()
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}
