package palermo

// ClusterNode is one node of a multi-node oblivious store: it serves the
// shard ranges a placement manifest (internal/cluster) assigns to its
// address, speaks the same wire protocol as the standalone Server, and can
// surrender a shard to another node through live migration (DESIGN.md
// §11).
//
//	man, _ := cluster.Load("manifest.json")
//	node, _ := palermo.NewClusterNode(palermo.ClusterNodeConfig{
//	        Addr: "10.0.0.1:7070", Store: palermo.ShardedStoreConfig{...}}, man)
//	srv, _ := palermo.NewClusterServer(node, palermo.ServerConfig{})
//	go srv.ListenAndServe(node.Addr())
//
// Placement is public and deterministic (shard = id mod S, then the
// manifest's range lookup), so the cluster layer reveals nothing beyond
// what the standalone network layer already does; each node's backend
// still observes exactly one uniform path per access for the shards it
// owns. Requests that name a shard the node does not own at its current
// geometry epoch are rejected wholesale with a wrong-epoch status — a
// rejected frame executes none of its operations, so a stale client can
// always refetch the manifest and retry without loss or duplication.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"palermo/internal/backend"
	"palermo/internal/cluster"
	"palermo/internal/netserve"
	"palermo/internal/serve"
	"palermo/internal/shard"
	"palermo/internal/wire"
)

// ClusterNodeConfig configures one cluster node.
type ClusterNodeConfig struct {
	// Addr is this node's manifest identity: the address clients dial,
	// exactly as it appears in the placement manifest's ranges.
	Addr string
	// Store carries the per-shard engine configuration. Blocks and Shards
	// may be zero (adopted from the manifest); when set they must agree
	// with it. Key and Seed must be identical on every node of the
	// cluster: a migrated shard's sealed blocks and engine state only
	// decrypt (and its IV domain only stays collision-free) under the
	// cluster-wide key and per-shard derived seed.
	Store ShardedStoreConfig
}

// clusterSlot is one owned shard: its engine and the single-worker
// service that confines it to one goroutine.
type clusterSlot struct {
	sh  *shard.Shard
	svc *serve.Service
	be  backend.Backend // storage backend (nil for memory), kept for FsyncLag
}

// ClusterNode serves the manifest-assigned subset of a sharded store.
type ClusterNode struct {
	cfg    ShardedStoreConfig
	addr   string
	router shard.Router

	// mu is the geometry lock. Request paths hold it shared across
	// ownership-check + submit + wait, so a frame observes one placement:
	// it is either fully executed under the epoch it was checked against
	// or fully rejected. Migration cutover takes it exclusively only for
	// the instants that change placement (marking the shard migrating,
	// flipping the manifest).
	mu        sync.RWMutex
	man       *cluster.Manifest
	slots     map[int]*clusterSlot
	migrating map[int]bool
	closed    bool

	// retired keeps surrendered shards' drained services and final traces:
	// their service-layer stats and leaf-trace prefixes remain observable
	// after the shard lives elsewhere.
	retired       []*serve.Service
	retiredTraces []LeafTrace

	traceOn bool

	migMu  sync.Mutex // serializes outbound migrations
	sinkMu sync.Mutex // guards the inbound staging session
	sink   *migrateSink
}

// NewClusterNode opens the shards man assigns to cfg.Addr and starts
// their workers. With a durable store directory, a manifest persisted by
// a previous life of this node supersedes man when its epoch is higher —
// a node that committed a placement flip never restarts into a stale
// assignment.
func NewClusterNode(cfg ClusterNodeConfig, man *cluster.Manifest) (*ClusterNode, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("palermo: cluster node needs an address (its manifest identity)")
	}
	if man == nil {
		return nil, fmt.Errorf("palermo: cluster node needs a placement manifest")
	}
	if err := man.Validate(); err != nil {
		return nil, fmt.Errorf("palermo: %w", err)
	}
	sc := cfg.Store
	if sc.Dir != "" {
		if ns, err := cluster.LoadNodeState(sc.Dir); err != nil {
			return nil, fmt.Errorf("palermo: %w", err)
		} else if ns != nil {
			if ns.Addr != cfg.Addr {
				return nil, fmt.Errorf("palermo: directory %s belongs to node %s, not %s", sc.Dir, ns.Addr, cfg.Addr)
			}
			if ns.Manifest.Epoch > man.Epoch {
				man = ns.Manifest
			}
		}
	}
	// The manifest owns the geometry; an explicitly configured one must
	// agree with it.
	if sc.Blocks != 0 && sc.Blocks != man.Blocks {
		return nil, fmt.Errorf("palermo: configured %d blocks, manifest has %d", sc.Blocks, man.Blocks)
	}
	if sc.Shards != 0 && sc.Shards != int(man.Shards) {
		return nil, fmt.Errorf("palermo: configured %d shards, manifest has %d", sc.Shards, man.Shards)
	}
	sc.Blocks, sc.Shards = man.Blocks, int(man.Shards)
	// The directory manifest pins the GLOBAL geometry — every node of the
	// cluster agrees on (Blocks, Shards, engine) even though each holds
	// only its own shard subdirectories.
	router, err := sc.validate()
	if err != nil {
		return nil, err
	}
	n := &ClusterNode{
		cfg:       sc,
		addr:      cfg.Addr,
		router:    router,
		man:       man,
		slots:     make(map[int]*clusterSlot),
		migrating: make(map[int]bool),
	}
	for _, s := range man.Owned(cfg.Addr) {
		slot, err := n.openSlot(s, nil)
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("palermo: %w", err)
		}
		n.slots[s] = slot
	}
	if sc.Dir != "" {
		if err := n.persistLocked(); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// openSlot builds one owned shard (restore, when non-nil, runs before
// the pipeline starts — the migration import) and its single-worker
// service. The shard is assembled exactly as NewShardedStore assembles
// it, so a cluster of nodes is protocol-identical to one in-process
// ShardedStore; the serve.Service has one worker (index 0) because shard
// confinement is per-slot here.
func (n *ClusterNode) openSlot(s int, restore func(*shard.Shard) error) (*clusterSlot, error) {
	sh, be, err := n.cfg.openShard(n.router, s, shard.DeriveSeed(n.cfg.Seed, s), restore)
	if err != nil {
		return nil, err
	}
	if n.traceOn {
		sh.EnableTrace()
	}
	svc := serve.New([]serve.Backend{stagedShard{sh}}, n.cfg.serveConfig())
	return &clusterSlot{sh: sh, svc: svc, be: be}, nil
}

// persistLocked writes the node's durable cluster state. Callers hold mu
// (or have exclusive access during construction/teardown).
func (n *ClusterNode) persistLocked() error {
	if n.cfg.Dir == "" {
		return nil
	}
	ns := &cluster.NodeState{Addr: n.addr, Manifest: n.man}
	if err := ns.Save(n.cfg.Dir); err != nil {
		return fmt.Errorf("palermo: %w", err)
	}
	return nil
}

// Addr returns the node's manifest identity.
func (n *ClusterNode) Addr() string { return n.addr }

// Blocks returns the cluster store's total capacity in blocks.
func (n *ClusterNode) Blocks() uint64 { return n.router.Blocks() }

// Shards returns the cluster store's total shard count.
func (n *ClusterNode) Shards() int { return n.router.Shards() }

// Epoch returns the node's current geometry epoch.
func (n *ClusterNode) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.man.Epoch
}

// OwnedShards returns the shards this node currently serves, ascending.
func (n *ClusterNode) OwnedShards() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]int, 0, len(n.slots))
	for s := range n.slots {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Owns reports whether this node currently serves the shard id routes to.
func (n *ClusterNode) Owns(id uint64) bool {
	s, _ := n.router.Route(id)
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.slots[s]
	return ok && !n.migrating[s]
}

// wrongEpochLocked builds the typed rejection for a shard this node does
// not serve. Callers hold mu shared.
func (n *ClusterNode) wrongEpochLocked(s int) error {
	return fmt.Errorf("node %s does not own shard %d at epoch %d: %w", n.addr, s, n.man.Epoch, netserve.ErrWrongEpoch)
}

// slotFor resolves an id to its slot under the caller's read lock.
func (n *ClusterNode) slotFor(id uint64) (*clusterSlot, uint64, error) {
	s, local := n.router.Route(id)
	slot, ok := n.slots[s]
	if !ok || n.migrating[s] {
		return nil, 0, n.wrongEpochLocked(s)
	}
	return slot, local, nil
}

// Read fetches a block obliviously, if this node owns its shard.
func (n *ClusterNode) Read(id uint64) ([]byte, error) {
	if id >= n.Blocks() {
		return nil, fmt.Errorf("palermo: block %d outside capacity %d", id, n.Blocks())
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	slot, local, err := n.slotFor(id)
	if err != nil {
		return nil, err
	}
	return slot.svc.Read(0, local)
}

// Write stores a block obliviously, if this node owns its shard.
func (n *ClusterNode) Write(id uint64, data []byte) error {
	if id >= n.Blocks() {
		return fmt.Errorf("palermo: block %d outside capacity %d", id, n.Blocks())
	}
	if len(data) != BlockSize {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(data))
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	slot, local, err := n.slotFor(id)
	if err != nil {
		return err
	}
	return slot.svc.Write(0, local, data)
}

// ReadBatch fetches many blocks in one frame-atomic unit: every id's
// shard must be owned here (else the whole batch is rejected untouched),
// and each owned shard's subset is submitted as one atomic batch with the
// §6 same-block dedup fan-out, exactly like ShardedStore.ReadBatch.
func (n *ClusterNode) ReadBatch(ids []uint64) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for _, id := range ids {
		if id >= n.Blocks() {
			return nil, fmt.Errorf("palermo: block %d outside capacity %d", id, n.Blocks())
		}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	perShard, perShardPos, err := n.partitionLocked(ids, nil)
	if err != nil {
		return nil, err
	}
	return out, n.waitBatchesLocked(perShard, perShardPos, out)
}

// WriteBatch stores blocks[i] under ids[i], frame-atomically (see
// ReadBatch).
func (n *ClusterNode) WriteBatch(ids []uint64, blocks [][]byte) error {
	if len(ids) != len(blocks) {
		return fmt.Errorf("palermo: WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	for i, id := range ids {
		if id >= n.Blocks() {
			return fmt.Errorf("palermo: block %d outside capacity %d", id, n.Blocks())
		}
		if len(blocks[i]) != BlockSize {
			return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(blocks[i]))
		}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	perShard, perShardPos, err := n.partitionLocked(ids, blocks)
	if err != nil {
		return err
	}
	return n.waitBatchesLocked(perShard, perShardPos, nil)
}

// partitionLocked splits a batch into per-owned-shard sub-batches,
// rejecting the whole batch if ANY id routes to an unowned shard — the
// frame-atomicity contract behind the wrong-epoch status: a rejected
// frame executed nothing, so a client retry cannot duplicate operations.
func (n *ClusterNode) partitionLocked(ids []uint64, blocks [][]byte) (map[int][]serve.Req, map[int][]int, error) {
	perShard := make(map[int][]serve.Req)
	perShardPos := make(map[int][]int)
	for i, id := range ids {
		s, local := n.router.Route(id)
		if _, ok := n.slots[s]; !ok || n.migrating[s] {
			return nil, nil, n.wrongEpochLocked(s)
		}
		req := serve.Req{Op: serve.OpRead, ID: local}
		if blocks != nil {
			req = serve.Req{Op: serve.OpWrite, ID: local, Data: blocks[i]}
		}
		perShard[s] = append(perShard[s], req)
		perShardPos[s] = append(perShardPos[s], i)
	}
	return perShard, perShardPos, nil
}

// waitBatchesLocked submits every sub-batch to its slot's worker, then
// waits for all futures, scattering read payloads into out by original
// position (the ShardedStore.waitBatches discipline).
func (n *ClusterNode) waitBatchesLocked(perShard map[int][]serve.Req, perShardPos map[int][]int, out [][]byte) error {
	futs := make(map[int][]*serve.Future, len(perShard))
	var firstErr error
	for s, reqs := range perShard {
		fs, err := n.slots[s].svc.SubmitBatch(0, reqs)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		futs[s] = fs
	}
	for s, fs := range futs {
		for j, f := range fs {
			data, err := f.Wait()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if out != nil && err == nil {
				out[perShardPos[s][j]] = data
			}
		}
	}
	return firstErr
}

// Stats folds the node's service and engine counters into the wire
// snapshot, including the cluster placement fields of the handshake.
// Service-layer stats merge live AND retired services (a migrated-away
// shard's serving history stays visible here); engine counters travel
// with their shard, so Traffic sums live slots only.
func (n *ClusterNode) Stats() wire.Stats {
	n.mu.RLock()
	svcs := make([]*serve.Service, 0, len(n.slots)+len(n.retired))
	first := -1
	for s, slot := range n.slots {
		svcs = append(svcs, slot.svc)
		if first < 0 || s < first {
			first = s
		}
	}
	svcs = append(svcs, n.retired...)
	owned := uint32(len(n.slots))
	epoch := n.man.Epoch
	n.mu.RUnlock()

	ss := serve.MergeStats(svcs)
	tr := n.Traffic()
	if first < 0 {
		first = 0
	}
	return wire.Stats{
		Blocks:      n.Blocks(),
		Shards:      uint32(n.Shards()),
		Reads:       ss.Reads,
		Writes:      ss.Writes,
		DedupHits:   ss.DedupHits,
		Sheds:       ss.Sheds,
		ReadLat:     toWireLatency(ss.ReadLat),
		WriteLat:    toWireLatency(ss.WriteLat),
		QueueLat:    toWireLatency(ss.QueueLat),
		ExecLat:     toWireLatency(ss.ExecLat),
		EngineReads: tr.Reads, EngineWrites: tr.Writes,
		DRAMReads: tr.DRAMReads, DRAMWrites: tr.DRAMWrites,
		StashPeak:      uint32(tr.StashPeak),
		TreeTopHits:    tr.TreeTopHits,
		PrefetchIssued: tr.PrefetchIssued, PrefetchUsed: tr.PrefetchUsed, PrefetchStale: tr.PrefetchStale,
		Epoch: epoch, FirstShard: uint32(first), OwnedShards: owned,
	}
}

// ServiceStats merges the node's live and retired services into the same
// service-layer snapshot shape ShardedStore.Stats returns (completed
// operations, dedup hits, shed counts, latency summaries). It is the
// operability view of Stats without the wire/placement framing.
func (n *ClusterNode) ServiceStats() ServiceStats {
	n.mu.RLock()
	svcs := make([]*serve.Service, 0, len(n.slots)+len(n.retired))
	for _, slot := range n.slots {
		svcs = append(svcs, slot.svc)
	}
	svcs = append(svcs, n.retired...)
	n.mu.RUnlock()
	return serve.MergeStats(svcs)
}

// QueueDepths reports each owned shard's instantaneous request-queue
// occupancy, in ascending shard order (pair with OwnedShards for the
// shard indices). A point-in-time gauge, not a synchronized snapshot.
func (n *ClusterNode) QueueDepths() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	shards := make([]int, 0, len(n.slots))
	for s := range n.slots {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	out := make([]int, 0, len(shards))
	for _, s := range shards {
		out = append(out, n.slots[s].svc.QueueDepths()[0])
	}
	return out
}

// FsyncLag aggregates the owned shards' durable-backend fsync telemetry
// (count and cumulative wait); memory-backed nodes report (0, 0).
func (n *ClusterNode) FsyncLag() (count uint64, total time.Duration) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, slot := range n.slots {
		if fs, ok := slot.be.(interface {
			FsyncStats() (uint64, time.Duration)
		}); ok {
			c, d := fs.FsyncStats()
			count += c
			total += d
		}
	}
	return count, total
}

// Traffic aggregates the live slots' engine counters (each snapshotted on
// its own worker). A migrated shard's counters moved with it: its new
// owner reports them, so summing live slots across the cluster counts
// every access exactly once.
func (n *ClusterNode) Traffic() TrafficReport {
	n.mu.RLock()
	slots := make([]*clusterSlot, 0, len(n.slots))
	for _, slot := range n.slots {
		slots = append(slots, slot)
	}
	n.mu.RUnlock()
	var rep TrafficReport
	for _, slot := range slots {
		var c shard.Counters
		sh := slot.sh
		if err := slot.svc.Sync(0, func() { c = sh.Snapshot() }); err != nil {
			slot.svc.WaitClosed()
			c = sh.Snapshot()
		}
		rep.add(c, slot.be)
	}
	return rep.amplified()
}

// EnableTraces starts recording every owned shard's leaf trace (including
// shards acquired by later migrations). Call before serving starts.
func (n *ClusterNode) EnableTraces() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.traceOn = true
	for _, slot := range n.slots {
		slot.sh.EnableTrace()
	}
}

// LeafTraces snapshots the leaf traces of every shard this node served:
// live slots (copied on their own workers) plus the final traces of
// shards surrendered by migration. For a migrated shard, this node's
// trace is the prefix of the shard's protocol history; the new owner's
// trace is its continuation.
func (n *ClusterNode) LeafTraces() []LeafTrace {
	n.mu.RLock()
	type liveRef struct {
		s    int
		slot *clusterSlot
	}
	live := make([]liveRef, 0, len(n.slots))
	for s, slot := range n.slots {
		live = append(live, liveRef{s, slot})
	}
	out := append([]LeafTrace(nil), n.retiredTraces...)
	n.mu.RUnlock()
	for _, lr := range live {
		var lt LeafTrace
		sh := lr.slot.sh
		copyTrace := func() {
			lt.Shard = lr.s
			lt.NumLeaves = sh.DataLeaves()
			if tr := sh.Trace(); tr != nil {
				lt.Leaves = append([]uint64(nil), tr.Leaves...)
			}
		}
		if err := lr.slot.svc.Sync(0, copyTrace); err != nil {
			lr.slot.svc.WaitClosed()
			copyTrace()
		}
		out = append(out, lt)
	}
	return out
}

// Close drains and closes every owned shard's service (checkpointing
// durable shards) and the retired services. Idempotent.
func (n *ClusterNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	slots := n.slots
	n.slots = make(map[int]*clusterSlot)
	retired := n.retired
	n.retired = nil
	n.mu.Unlock()
	var errs []error
	for _, slot := range slots {
		errs = append(errs, slot.svc.Close())
	}
	for _, svc := range retired {
		errs = append(errs, svc.Close())
	}
	return errors.Join(errs...)
}

// NewClusterServer exposes a ClusterNode over TCP with the standalone
// Server's network layer; the node additionally answers the Manifest op
// and the migration op family.
func NewClusterServer(n *ClusterNode, cfg ServerConfig) (*Server, error) {
	if n == nil {
		return nil, fmt.Errorf("palermo: NewClusterServer requires a node")
	}
	ns, err := netserve.New(n, netserve.Config{
		MaxInFlight:  cfg.MaxInFlight,
		MaxBatch:     cfg.MaxBatch,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("palermo: %w", err)
	}
	return &Server{ns: ns}, nil
}

// --- extension ops (manifest + migration) ------------------------------

// ServeExt dispatches the cluster-only wire ops (netserve.ExtStore). The
// payload aliases the connection's frame buffer, so anything retained is
// copied here.
func (n *ClusterNode) ServeExt(op byte, payload []byte) ([]byte, error) {
	switch op {
	case wire.OpManifest:
		n.mu.RLock()
		man := n.man
		n.mu.RUnlock()
		return man.Encode()
	case wire.OpMigrateBegin:
		mb, err := wire.ParseMigrateBeginReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkBegin(mb)
	case wire.OpMigrateBlocks:
		s, recs, err := wire.ParseMigrateBlocksReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkBlocks(s, recs)
	case wire.OpMigrateMeta:
		s, metaEpoch, total, off, chunk, err := wire.ParseMigrateMetaReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkMeta(s, metaEpoch, total, off, chunk)
	case wire.OpMigrateCommit:
		s, newEpoch, err := wire.ParseMigrateCommitReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkCommit(s, newEpoch)
	case wire.OpMigrateAbort:
		s, err := wire.ParseMigrateAbortReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.sinkAbort(s)
	case wire.OpMigrate:
		s, target, err := wire.ParseMigrateReq(payload)
		if err != nil {
			return nil, err
		}
		return nil, n.Migrate(int(s), target)
	}
	return nil, fmt.Errorf("palermo: unsupported op %d", op)
}

// migrateSink is the inbound staging session: the joining node holds the
// streamed shard entirely in memory until Commit, so a failed migration
// leaves no on-disk trace to clean up.
type migrateSink struct {
	begin     wire.MigrateBegin
	blocks    map[uint64]shard.SealedBlock // last write wins, like replaying the puts
	metaEpoch uint64
	metaTotal uint32
	meta      []byte // staged sequentially; complete when len == metaTotal
}

// sinkBegin opens a staging session after checking the offered shard can
// belong to this node's store: same geometry, same epoch, not already
// owned here. One inbound migration at a time.
func (n *ClusterNode) sinkBegin(mb wire.MigrateBegin) error {
	n.mu.RLock()
	epoch := n.man.Epoch
	_, owned := n.slots[int(mb.Shard)]
	n.mu.RUnlock()
	if int(mb.Shard) >= n.Shards() {
		return fmt.Errorf("palermo: migrate: shard %d outside store's %d shards", mb.Shard, n.Shards())
	}
	if mb.Stride != uint32(n.Shards()) || mb.Blocks != n.Blocks() {
		return fmt.Errorf("palermo: migrate: geometry mismatch (sender %d blocks / %d shards, node %d / %d)",
			mb.Blocks, mb.Stride, n.Blocks(), n.Shards())
	}
	if mb.ShardBlocks != n.router.ShardBlocks(int(mb.Shard)) {
		return fmt.Errorf("palermo: migrate: shard %d capacity mismatch (%d vs %d)", mb.Shard, mb.ShardBlocks, n.router.ShardBlocks(int(mb.Shard)))
	}
	if mb.Epoch != epoch {
		return fmt.Errorf("palermo: migrate: sender at epoch %d, node at %d: refetch placement first", mb.Epoch, epoch)
	}
	if owned {
		return fmt.Errorf("palermo: migrate: node %s already owns shard %d", n.addr, mb.Shard)
	}
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	if n.sink != nil {
		return fmt.Errorf("palermo: migrate: a migration of shard %d is already staging", n.sink.begin.Shard)
	}
	n.sink = &migrateSink{begin: mb, blocks: make(map[uint64]shard.SealedBlock)}
	return nil
}

// sinkFor returns the staging session, which must match the frame's shard.
func (n *ClusterNode) sinkFor(s uint32) (*migrateSink, error) {
	if n.sink == nil || n.sink.begin.Shard != s {
		return nil, fmt.Errorf("palermo: migrate: no staging session for shard %d", s)
	}
	return n.sink, nil
}

// sinkBlocks stages one frame of sealed blocks (snapshot or tail; later
// records for the same local supersede earlier ones, exactly like
// replaying the puts in order).
func (n *ClusterNode) sinkBlocks(s uint32, recs []wire.MigrateBlock) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	sink, err := n.sinkFor(s)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Local >= sink.begin.ShardBlocks {
			return fmt.Errorf("palermo: migrate: block %d outside shard %d capacity %d", r.Local, s, sink.begin.ShardBlocks)
		}
		sink.blocks[r.Local] = shard.SealedBlock{
			Local: r.Local, Epoch: r.Epoch,
			Ct: append([]byte(nil), r.Ct...), // r.Ct aliases the frame buffer
		}
	}
	return nil
}

// sinkMeta stages one chunk of the sealed engine-state blob (sequential:
// each chunk's offset must equal the bytes staged so far).
func (n *ClusterNode) sinkMeta(s uint32, metaEpoch uint64, total, off uint32, chunk []byte) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	sink, err := n.sinkFor(s)
	if err != nil {
		return err
	}
	if sink.meta == nil {
		sink.metaEpoch, sink.metaTotal = metaEpoch, total
		sink.meta = make([]byte, 0, total)
	}
	if metaEpoch != sink.metaEpoch || total != sink.metaTotal {
		return fmt.Errorf("palermo: migrate: meta chunk changed identity mid-stream (epoch %d/%d, total %d/%d)",
			metaEpoch, sink.metaEpoch, total, sink.metaTotal)
	}
	if uint32(len(sink.meta)) != off {
		return fmt.Errorf("palermo: migrate: meta chunk at offset %d, want %d (chunks must be sequential)", off, len(sink.meta))
	}
	sink.meta = append(sink.meta, chunk...)
	return nil
}

// sinkAbort discards the staging session.
func (n *ClusterNode) sinkAbort(s uint32) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	if _, err := n.sinkFor(s); err != nil {
		return err
	}
	n.sink = nil
	return nil
}

// sinkCommit turns the staged session into a live owned shard and flips
// the node's placement to the new epoch: build the shard (wiping any
// stale on-disk state a previous ownership left behind), import the
// sealed blocks, restore the exact engine state, checkpoint, start the
// worker, and only then expose the slot and the new manifest.
func (n *ClusterNode) sinkCommit(s uint32, newEpoch uint64) error {
	n.sinkMu.Lock()
	defer n.sinkMu.Unlock()
	sink, err := n.sinkFor(s)
	if err != nil {
		return err
	}
	// The session is consumed either way: a failed commit needs a fresh
	// Begin, it must not wedge the node's single staging slot.
	n.sink = nil
	if len(sink.meta) == 0 || uint32(len(sink.meta)) != sink.metaTotal {
		return fmt.Errorf("palermo: migrate: commit with %d of %d meta bytes staged", len(sink.meta), sink.metaTotal)
	}
	if newEpoch != sink.begin.Epoch+1 {
		return fmt.Errorf("palermo: migrate: commit epoch %d, want %d", newEpoch, sink.begin.Epoch+1)
	}
	if n.cfg.Dir != "" {
		// A previous ownership of this shard (before an earlier migration
		// away) left a subdirectory whose recovered state diverges from
		// the incoming one: wipe it, this import IS the shard's state.
		if err := os.RemoveAll(shardDir(n.cfg.Dir, int(s))); err != nil {
			return fmt.Errorf("palermo: migrate: %w", err)
		}
	}
	slot, err := n.openSlot(int(s), func(sh *shard.Shard) error {
		blocks := make([]shard.SealedBlock, 0, len(sink.blocks))
		for _, b := range sink.blocks {
			blocks = append(blocks, b)
		}
		if err := sh.ImportBlocks(blocks); err != nil {
			return err
		}
		if err := sh.RestoreMeta(sink.meta, sink.metaEpoch); err != nil {
			return err
		}
		// Persist the migrated state as the shard's first durable
		// checkpoint: a crash after commit must recover the imported
		// shard, not the empty creation state.
		return sh.ForceCheckpoint()
	})
	if err != nil {
		return fmt.Errorf("palermo: migrate: %w", err)
	}
	n.mu.Lock()
	if n.man.Epoch != sink.begin.Epoch {
		cur := n.man.Epoch
		n.mu.Unlock()
		// The node's placement moved while the shard streamed: installing
		// would regress the epoch. Discard the import (retired so the
		// teardown never seals into the source's still-live epoch domain).
		sh2 := slot.sh
		slot.svc.Sync(0, func() { sh2.Retire() })
		slot.svc.Close()
		return fmt.Errorf("palermo: migrate: node epoch moved to %d while shard %d staged (began at %d)", cur, s, sink.begin.Epoch)
	}
	n.slots[int(s)] = slot
	n.man = n.man.WithOwner(int(s), n.addr, newEpoch)
	err = n.persistLocked()
	n.mu.Unlock()
	return err
}

// --- outbound migration (source driver) --------------------------------

// migrateDialTimeout bounds the TCP dial to the joining node.
const migrateDialTimeout = 10 * time.Second

// Migrate pushes an owned shard to the node at target and cuts ownership
// over: stream a consistent snapshot while the shard keeps serving, then
// under a brief per-shard barrier send the teed write tail plus the exact
// sealed engine state, commit on the target, and flip this node's
// placement to the bumped epoch. On success the surrendered shard is
// retired (its sealing-epoch domain now belongs to the target) and
// requests for it answer wrong-epoch until clients refetch the manifest.
//
// Failure before the commit frame aborts cleanly: the target discards its
// staging session and this node resumes serving the shard, placement
// unchanged. Failure at or after the commit frame is ambiguous (the
// target may own the shard) and fail-stops the shard here — neither node
// serves it until an operator resolves which side holds it; serving it
// from both, or re-entering its surrendered sealing-epoch domain, would
// be worse than unavailability.
func (n *ClusterNode) Migrate(shardIdx int, target string) error {
	n.migMu.Lock()
	defer n.migMu.Unlock()
	if target == n.addr {
		return fmt.Errorf("palermo: migrate: target %s is this node", target)
	}
	n.mu.RLock()
	slot, owned := n.slots[shardIdx]
	epoch := n.man.Epoch
	n.mu.RUnlock()
	if !owned {
		return fmt.Errorf("palermo: migrate: node %s does not own shard %d", n.addr, shardIdx)
	}
	nc, err := net.DialTimeout("tcp", target, migrateDialTimeout)
	if err != nil {
		return fmt.Errorf("palermo: migrate: dial %s: %w", target, err)
	}
	defer nc.Close()
	mc := &migrateConn{nc: nc}
	if err := mc.roundTrip(wire.OpMigrateBegin, wire.AppendMigrateBeginReq(nil, wire.MigrateBegin{
		Shard:       uint32(shardIdx),
		Stride:      uint32(n.Shards()),
		Blocks:      n.Blocks(),
		ShardBlocks: n.router.ShardBlocks(shardIdx),
		Epoch:       epoch,
	})); err != nil {
		return fmt.Errorf("palermo: migrate begin: %w", err)
	}

	// Phase 1: snapshot + arm the tee in one barrier (their union covers
	// the write stream exactly once), then stream the snapshot while the
	// shard keeps serving.
	var snap []shard.SealedBlock
	var expErr error
	sh := slot.sh
	if err := slot.svc.Sync(0, func() {
		snap, expErr = sh.ExportBlocks()
		if expErr == nil {
			sh.StartTee()
		}
	}); err != nil {
		return fmt.Errorf("palermo: migrate: %w", err)
	}
	if expErr != nil {
		return fmt.Errorf("palermo: migrate: %w", expErr)
	}
	if err := mc.sendBlocks(uint32(shardIdx), snap); err != nil {
		n.abortMigration(mc, slot, shardIdx, false)
		return fmt.Errorf("palermo: migrate snapshot: %w", err)
	}

	// Cutover barrier: stop admitting requests for this shard, drain what
	// is queued, and capture the tail + exact engine state.
	n.mu.Lock()
	n.migrating[shardIdx] = true
	n.mu.Unlock()
	var tail []shard.SealedBlock
	var meta []byte
	var metaEpoch uint64
	if err := slot.svc.Sync(0, func() {
		tail = sh.StopTee()
		meta, metaEpoch, expErr = sh.ExportMeta()
	}); err != nil {
		n.abortMigration(mc, slot, shardIdx, true)
		return fmt.Errorf("palermo: migrate: %w", err)
	}
	if expErr != nil {
		n.abortMigration(mc, slot, shardIdx, true)
		return fmt.Errorf("palermo: migrate: %w", expErr)
	}
	if err := mc.sendBlocks(uint32(shardIdx), tail); err != nil {
		n.abortMigration(mc, slot, shardIdx, true)
		return fmt.Errorf("palermo: migrate tail: %w", err)
	}
	if err := mc.sendMeta(uint32(shardIdx), metaEpoch, meta); err != nil {
		n.abortMigration(mc, slot, shardIdx, true)
		return fmt.Errorf("palermo: migrate meta: %w", err)
	}

	// Commit. From the moment the frame is on the wire, failure no longer
	// means "the target doesn't have the shard" — fail-stop, don't abort.
	if err := mc.roundTrip(wire.OpMigrateCommit, wire.AppendMigrateCommitReq(nil, uint32(shardIdx), epoch+1)); err != nil {
		n.failStop(slot, shardIdx)
		return fmt.Errorf("palermo: migrate commit failed after the commit frame was sent; shard %d fail-stopped on this node (the target may own it — resolve placement manually): %w", shardIdx, err)
	}

	// Committed: flip placement, then retire the surrendered shard. Its
	// sealing-epoch domain now continues on the target, so this side must
	// never seal again (Retire suppresses the farewell checkpoint).
	n.mu.Lock()
	delete(n.slots, shardIdx)
	delete(n.migrating, shardIdx)
	n.man = n.man.WithOwner(shardIdx, target, epoch+1)
	perr := n.persistLocked()
	n.mu.Unlock()
	n.retireSlot(slot, shardIdx)
	if perr != nil {
		return perr
	}
	return nil
}

// retireSlot captures a surrendered shard's final trace, retires it, and
// parks its drained service for merged stats.
func (n *ClusterNode) retireSlot(slot *clusterSlot, shardIdx int) {
	var lt LeafTrace
	sh := slot.sh
	capture := func() {
		lt.Shard = shardIdx
		lt.NumLeaves = sh.DataLeaves()
		if tr := sh.Trace(); tr != nil {
			lt.Leaves = append([]uint64(nil), tr.Leaves...)
		}
		sh.Retire()
	}
	if err := slot.svc.Sync(0, capture); err != nil {
		slot.svc.WaitClosed()
		capture()
	}
	slot.svc.Close()
	n.mu.Lock()
	n.retired = append(n.retired, slot.svc)
	if n.traceOn {
		n.retiredTraces = append(n.retiredTraces, lt)
	}
	n.mu.Unlock()
}

// failStop removes a shard whose migration commit outcome is unknown:
// neither serve it (the target may own it) nor checkpoint it (the target
// may continue its sealing-epoch domain).
func (n *ClusterNode) failStop(slot *clusterSlot, shardIdx int) {
	n.mu.Lock()
	delete(n.slots, shardIdx)
	delete(n.migrating, shardIdx)
	n.mu.Unlock()
	n.retireSlot(slot, shardIdx)
}

// abortMigration unwinds a pre-commit failure: best-effort Abort to the
// target, discard the tee, and (if the cutover barrier was up) resume
// serving the shard.
func (n *ClusterNode) abortMigration(mc *migrateConn, slot *clusterSlot, shardIdx int, barrier bool) {
	mc.roundTrip(wire.OpMigrateAbort, wire.AppendMigrateAbortReq(nil, uint32(shardIdx))) // best-effort
	sh := slot.sh
	if err := slot.svc.Sync(0, func() { sh.StopTee() }); err != nil {
		slot.svc.WaitClosed()
		sh.StopTee()
	}
	if barrier {
		n.mu.Lock()
		delete(n.migrating, shardIdx)
		n.mu.Unlock()
	}
}

// migrateConn is the source's raw, strictly sequential migration stream:
// one request frame on the wire at a time, each answered before the next
// (ordering is the correctness anchor for snapshot-then-tail).
type migrateConn struct {
	nc    net.Conn
	reqID uint64
}

func (mc *migrateConn) roundTrip(op byte, payload []byte) error {
	mc.reqID++
	if err := wire.WriteFrame(mc.nc, op, mc.reqID, payload); err != nil {
		return err
	}
	f, err := wire.ReadFrame(mc.nc)
	if err != nil {
		return err
	}
	if f.Op != wire.Resp(op) || f.ReqID != mc.reqID {
		return fmt.Errorf("out-of-order migration response (op %d, id %d)", f.Op, f.ReqID)
	}
	st, _, msg, err := wire.ParseResp(f.Payload)
	if err != nil {
		return err
	}
	if st != wire.StatusOK {
		return remoteErr(st, msg)
	}
	return nil
}

// sendBlocks streams sealed blocks in MaxMigrateBlocks-sized frames (an
// empty set sends nothing).
func (mc *migrateConn) sendBlocks(s uint32, blocks []shard.SealedBlock) error {
	for off := 0; off < len(blocks); off += wire.MaxMigrateBlocks {
		end := off + wire.MaxMigrateBlocks
		if end > len(blocks) {
			end = len(blocks)
		}
		recs := make([]wire.MigrateBlock, 0, end-off)
		for _, b := range blocks[off:end] {
			recs = append(recs, wire.MigrateBlock{Local: b.Local, Epoch: b.Epoch, Ct: b.Ct})
		}
		payload, err := wire.AppendMigrateBlocksReq(nil, s, recs)
		if err != nil {
			return err
		}
		if err := mc.roundTrip(wire.OpMigrateBlocks, payload); err != nil {
			return err
		}
	}
	return nil
}

// sendMeta streams the sealed engine-state blob in MaxMetaChunk-sized
// frames.
func (mc *migrateConn) sendMeta(s uint32, metaEpoch uint64, meta []byte) error {
	total := uint32(len(meta))
	for off := uint32(0); off < total; {
		end := off + wire.MaxMetaChunk
		if end > total {
			end = total
		}
		payload, err := wire.AppendMigrateMetaReq(nil, s, metaEpoch, total, off, meta[off:end])
		if err != nil {
			return err
		}
		if err := mc.roundTrip(wire.OpMigrateMeta, payload); err != nil {
			return err
		}
		off = end
	}
	return nil
}
