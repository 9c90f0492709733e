package palermo

// Client is the remote form of ShardedStore: the same
// Read/Write/ReadBatch/WriteBatch/Stats surface, executed over TCP against
// a palermo.Server (or cmd/palermo-server) speaking the internal/wire
// protocol.
//
//	cl, _ := palermo.Dial("127.0.0.1:7070", palermo.ClientConfig{})
//	defer cl.Close()
//	cl.Write(42, payload)
//	data, _ := cl.Read(42)
//
// Concurrency model: a Client is safe for any number of goroutines. Each
// pooled connection runs a mux goroutine (serializes request frames) and a
// reader goroutine (resolves responses by request id), so one connection
// carries many in-flight operations. Concurrent single-block operations
// that arrive inside one mux drain window are coalesced into
// ReadBatch/WriteBatch frames automatically — closed-loop clients get
// frame batching without changing their call sites. Explicit
// ReadBatch/WriteBatch calls are forwarded as single frames, never split
// or merged, preserving their atomic dedup semantics.
//
// Every operation has a *Ctx variant; cancelling the context abandons the
// wait, and the eventual response is discarded. Operations against a
// closed client or a draining server return an error satisfying
// errors.Is(err, palermo.ErrClosed).
//
// A connection that breaks (server restart, idle-timeout reap, network
// fault) fails its in-flight operations, and the next operation routed to
// its pool slot re-dials transparently — a long-lived client survives
// server idle disconnects. The redial repeats the Stats handshake, so a
// restarted server's batch limit takes effect and a geometry change (a
// different store at the same address) fails loudly instead of being
// silently adapted to. Close waits for outstanding responses;
// ClientConfig.CloseTimeout bounds that wait against a stalled peer.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"palermo/internal/wire"
)

// ClientConfig tunes a client. The zero value uses the defaults.
type ClientConfig struct {
	// Conns is the connection-pool size; operations round-robin across it.
	// Default 1.
	Conns int
	// MaxInFlight bounds each connection's outstanding request frames;
	// further submissions block (the client half of the server's window).
	// Default 64.
	MaxInFlight int
	// BatchWindow caps how many concurrent single-block operations one mux
	// drain coalesces into a ReadBatch/WriteBatch frame. 1 disables
	// coalescing. Default 32.
	BatchWindow int
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// CloseTimeout bounds how long Close waits for outstanding responses
	// before force-closing the sockets and failing the pending operations
	// (a stalled server or network otherwise wedges Close forever).
	// 0 (the default) waits indefinitely.
	CloseTimeout time.Duration
}

func (c *ClientConfig) defaults() {
	if c.Conns == 0 {
		c.Conns = 1
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 32
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
}

func (c ClientConfig) validate() error {
	if c.Conns < 0 || c.MaxInFlight < 0 || c.BatchWindow < 0 {
		return fmt.Errorf("palermo: Conns/MaxInFlight/BatchWindow must be >= 0")
	}
	if c.BatchWindow > wire.MaxOps {
		return fmt.Errorf("palermo: BatchWindow %d exceeds the wire format's %d-op frame limit", c.BatchWindow, wire.MaxOps)
	}
	if c.DialTimeout < 0 {
		return fmt.Errorf("palermo: DialTimeout must be >= 0")
	}
	if c.CloseTimeout < 0 {
		return fmt.Errorf("palermo: CloseTimeout must be >= 0")
	}
	return nil
}

// ClientNetStats counts the client side of the wire: how many request
// frames were sent and how many operations they carried. MergedOps is the
// automatic-batching win — single-block calls that shared a coalesced
// batch frame instead of paying their own round trip.
type ClientNetStats struct {
	FramesSent uint64
	Ops        uint64
	MergedOps  uint64
}

// Client is a remote handle on a served store.
type Client struct {
	cfg    ClientConfig
	addr   string
	slots  []*connSlot
	next   atomic.Uint64
	blocks uint64
	shards int
	epoch  uint64 // geometry epoch pinned at Dial (0 from a standalone server)

	// serverMaxBatch is the per-frame op limit the handshake learned (0
	// until then): the mux clamps its coalescing window to it and explicit
	// batches beyond it fail client-side instead of as a remote StatusBad.
	serverMaxBatch atomic.Uint64

	mu     sync.RWMutex // guards closed vs. in-flight submissions
	closed bool

	frames, ops, merged atomic.Uint64
}

// Dial connects to a palermo server, performs the Stats handshake to
// learn the store geometry, and returns a ready client.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	cl := &Client{cfg: cfg, addr: addr}
	for i := 0; i < cfg.Conns; i++ {
		nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("palermo: dial %s: %w", addr, err)
		}
		slot := &connSlot{}
		slot.cur.Store(newClientConn(cl, nc))
		cl.slots = append(cl.slots, slot)
	}
	ws, err := cl.wireStats(context.Background())
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("palermo: dial %s: handshake: %w", addr, err)
	}
	cl.blocks = ws.Blocks
	cl.shards = int(ws.Shards)
	cl.epoch = ws.Epoch
	cl.serverMaxBatch.Store(uint64(ws.MaxBatch))
	return cl, nil
}

// batchLimit returns the largest batch frame this client may send: the
// wire format's cap, tightened by the server's advertised limit.
func (cl *Client) batchLimit() int {
	limit := wire.MaxOps
	if sm := cl.serverMaxBatch.Load(); sm > 0 && sm < uint64(limit) {
		limit = int(sm)
	}
	return limit
}

// Blocks returns the served store's capacity in blocks.
func (cl *Client) Blocks() uint64 { return cl.blocks }

// Shards returns the served store's shard count.
func (cl *Client) Shards() int { return cl.shards }

// Epoch returns the geometry epoch the Dial handshake pinned: the cluster
// placement version the server held then, or 0 from a standalone server.
// A redial to a server whose epoch has moved fails loudly ("geometry
// changed"), so a Client never silently serves across a placement flip —
// ClusterClient re-dials with a fresh manifest instead.
func (cl *Client) Epoch() uint64 { return cl.epoch }

// Read fetches a block obliviously from the remote store.
func (cl *Client) Read(id uint64) ([]byte, error) {
	return cl.ReadCtx(context.Background(), id)
}

// ReadCtx is Read with cancellation.
func (cl *Client) ReadCtx(ctx context.Context, id uint64) ([]byte, error) {
	if id >= cl.blocks {
		return nil, fmt.Errorf("palermo: block %d outside capacity %d", id, cl.blocks)
	}
	r, err := cl.do(ctx, &call{op: wire.OpRead, id: id})
	if err != nil {
		return nil, err
	}
	return r.data, nil
}

// Write stores a 64-byte block obliviously in the remote store.
func (cl *Client) Write(id uint64, data []byte) error {
	return cl.WriteCtx(context.Background(), id, data)
}

// WriteCtx is Write with cancellation. Note that cancelling abandons the
// wait, not the write: a frame already sent may still commit remotely.
func (cl *Client) WriteCtx(ctx context.Context, id uint64, data []byte) error {
	if id >= cl.blocks {
		return fmt.Errorf("palermo: block %d outside capacity %d", id, cl.blocks)
	}
	if len(data) != BlockSize {
		return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(data))
	}
	_, err := cl.do(ctx, &call{op: wire.OpWrite, id: id, data: append([]byte(nil), data...)})
	return err
}

// ReadBatch fetches many blocks in one frame, preserving the atomic
// same-block dedup semantics of ShardedStore.ReadBatch: the server
// submits the whole batch as one unit.
func (cl *Client) ReadBatch(ids []uint64) ([][]byte, error) {
	return cl.ReadBatchCtx(context.Background(), ids)
}

// ReadBatchCtx is ReadBatch with cancellation.
func (cl *Client) ReadBatchCtx(ctx context.Context, ids []uint64) ([][]byte, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if limit := cl.batchLimit(); len(ids) > limit {
		return nil, fmt.Errorf("palermo: batch of %d ops exceeds the server limit of %d", len(ids), limit)
	}
	for _, id := range ids {
		if id >= cl.blocks {
			return nil, fmt.Errorf("palermo: block %d outside capacity %d", id, cl.blocks)
		}
	}
	r, err := cl.do(ctx, &call{op: wire.OpReadBatch, ids: append([]uint64(nil), ids...)})
	if err != nil {
		return nil, err
	}
	return r.batch, nil
}

// WriteBatch stores blocks[i] under ids[i] in one frame.
func (cl *Client) WriteBatch(ids []uint64, blocks [][]byte) error {
	return cl.WriteBatchCtx(context.Background(), ids, blocks)
}

// WriteBatchCtx is WriteBatch with cancellation.
func (cl *Client) WriteBatchCtx(ctx context.Context, ids []uint64, blocks [][]byte) error {
	if len(ids) != len(blocks) {
		return fmt.Errorf("palermo: WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	if len(ids) == 0 {
		return nil
	}
	if limit := cl.batchLimit(); len(ids) > limit {
		return fmt.Errorf("palermo: batch of %d ops exceeds the server limit of %d", len(ids), limit)
	}
	cp := make([][]byte, len(blocks))
	for i, id := range ids {
		if id >= cl.blocks {
			return fmt.Errorf("palermo: block %d outside capacity %d", id, cl.blocks)
		}
		if len(blocks[i]) != BlockSize {
			return fmt.Errorf("palermo: block must be %d bytes, got %d", BlockSize, len(blocks[i]))
		}
		cp[i] = append([]byte(nil), blocks[i]...)
	}
	_, err := cl.do(ctx, &call{op: wire.OpWriteBatch, ids: append([]uint64(nil), ids...), blocks: cp})
	return err
}

// Stats fetches the remote service-layer snapshot.
func (cl *Client) Stats() (ServiceStats, error) {
	ss, _, err := cl.Snapshot()
	return ss, err
}

// Traffic fetches the remote store's accumulated traffic report.
func (cl *Client) Traffic() (TrafficReport, error) {
	_, tr, err := cl.Snapshot()
	return tr, err
}

// Snapshot fetches Stats and Traffic in one wire operation. It satisfies
// internal/loadgen.Target, so the load generator drives remote stores
// exactly like in-process ones.
func (cl *Client) Snapshot() (ServiceStats, TrafficReport, error) {
	ws, err := cl.wireStats(context.Background())
	if err != nil {
		return ServiceStats{}, TrafficReport{}, err
	}
	ss := ServiceStats{
		Reads: ws.Reads, Writes: ws.Writes, DedupHits: ws.DedupHits,
		Sheds:    ws.Sheds,
		ReadLat:  fromWireLatency(ws.ReadLat),
		WriteLat: fromWireLatency(ws.WriteLat),
		QueueLat: fromWireLatency(ws.QueueLat),
		ExecLat:  fromWireLatency(ws.ExecLat),
	}
	tr := TrafficReport{
		Reads: ws.EngineReads, Writes: ws.EngineWrites,
		DRAMReads: ws.DRAMReads, DRAMWrites: ws.DRAMWrites,
		StashPeak:      int(ws.StashPeak),
		TreeTopHits:    ws.TreeTopHits,
		PrefetchIssued: ws.PrefetchIssued, PrefetchUsed: ws.PrefetchUsed, PrefetchStale: ws.PrefetchStale,
	}
	if ops := tr.Reads + tr.Writes; ops > 0 {
		tr.AmplificationFactor = float64(tr.DRAMReads+tr.DRAMWrites) / float64(ops)
	}
	return ss, tr, nil
}

// Manifest fetches the server's current placement manifest as canonical
// JSON (see internal/cluster). A standalone server has no manifest and
// answers with an error.
func (cl *Client) Manifest() ([]byte, error) {
	return cl.ManifestCtx(context.Background())
}

// ManifestCtx is Manifest with cancellation.
func (cl *Client) ManifestCtx(ctx context.Context) ([]byte, error) {
	r, err := cl.do(ctx, &call{op: wire.OpManifest})
	if err != nil {
		return nil, err
	}
	return r.raw, nil
}

// Migrate asks the server — which must own the shard — to push it to the
// cluster node at target and cut ownership over (the admin trigger behind
// palermo-ctl migrate). Blocks until the migration commits or fails; the
// call returning nil means the placement flipped and the shard is now
// served by target.
func (cl *Client) Migrate(shard int, target string) error {
	return cl.MigrateCtx(context.Background(), shard, target)
}

// MigrateCtx is Migrate with cancellation. Cancelling abandons the wait,
// not the migration: a request already sent may still complete remotely.
func (cl *Client) MigrateCtx(ctx context.Context, shard int, target string) error {
	if shard < 0 || shard >= cl.shards {
		return fmt.Errorf("palermo: shard %d outside store's %d shards", shard, cl.shards)
	}
	_, err := cl.do(ctx, &call{op: wire.OpMigrate, id: uint64(shard), target: target})
	return err
}

func fromWireLatency(l wire.Latency) LatencySummary {
	return LatencySummary{N: l.N, MeanUs: l.MeanUs, P50Us: l.P50Us, P99Us: l.P99Us}
}

func (cl *Client) wireStats(ctx context.Context) (wire.Stats, error) {
	r, err := cl.do(ctx, &call{op: wire.OpStats})
	if err != nil {
		return wire.Stats{}, err
	}
	return r.stats, nil
}

// NetStats returns the client-side wire counters.
func (cl *Client) NetStats() ClientNetStats {
	return ClientNetStats{
		FramesSent: cl.frames.Load(),
		Ops:        cl.ops.Load(),
		MergedOps:  cl.merged.Load(),
	}
}

// Close shuts the client down gracefully: stop accepting operations,
// flush queued frames, wait for outstanding responses, then close the
// connections. With a CloseTimeout configured, a peer that never answers
// is abandoned after the deadline: the sockets are force-closed and the
// pending operations fail with a connection-lost error. Idempotent.
// Operations after Close return ErrClosed.
func (cl *Client) Close() error {
	// Arm the escape hatch before anything that can block: a submitter
	// parked on a full send queue holds the read lock, so against a
	// stalled peer even the write-lock acquisition below can wedge.
	// Force-closing the live sockets breaks the jam — readers fail,
	// readerDone closes, parked submitters bail out.
	if cl.cfg.CloseTimeout > 0 {
		t := time.AfterFunc(cl.cfg.CloseTimeout, func() {
			for _, slot := range cl.slots {
				slot.cur.Load().nc.Close()
			}
		})
		defer t.Stop()
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	// Collect every connection ever created — the live one per slot plus
	// the broken ones redials retired — and close their send queues. No
	// redial can race this: redials run under the read lock.
	var conns []*clientConn
	for _, slot := range cl.slots {
		conns = append(conns, slot.cur.Load())
		conns = append(conns, slot.retired...)
		slot.retired = nil
	}
	for _, cc := range conns {
		close(cc.sendq)
	}
	cl.mu.Unlock()
	// Second timer for the drain phase: it covers the exact connection
	// set, including one a redial swapped in after the pre-lock timer
	// fired (worst case the two phases each wait a full CloseTimeout).
	if cl.cfg.CloseTimeout > 0 {
		t := time.AfterFunc(cl.cfg.CloseTimeout, func() {
			for _, cc := range conns {
				cc.nc.Close() // readers fail, draining unblocks below
			}
		})
		defer t.Stop()
	}
	for _, cc := range conns {
		<-cc.muxDone
		cc.drainInFlight()
		cc.nc.Close()
		<-cc.readerDone
	}
	return nil
}

// do submits one call and waits for its result or ctx cancellation. A
// call whose ctx is already done is never sent: the send select below
// picks at random among ready cases, so it could queue the call and still
// report ctx.Err(), and a write the caller saw fail would execute later.
func (cl *Client) do(ctx context.Context, ca *call) (callResult, error) {
	if err := ctx.Err(); err != nil {
		return callResult{}, err
	}
	ca.done = make(chan callResult, 1)
	cl.mu.RLock()
	if cl.closed {
		cl.mu.RUnlock()
		return callResult{}, fmt.Errorf("palermo: client: %w", ErrClosed)
	}
	slot := cl.slots[cl.next.Add(1)%uint64(len(cl.slots))]
	cc, err := slot.conn(cl)
	if err != nil {
		cl.mu.RUnlock()
		return callResult{}, err
	}
	// Holding the read lock across the (blocking, back-pressured) send is
	// the same discipline as serve.Service.enqueue: Close cannot close
	// sendq until every in-flight send has released the lock.
	select {
	case cc.sendq <- ca:
	case <-ctx.Done():
		err = ctx.Err()
	case <-cc.readerDone:
		err = cc.brokenErr()
	}
	cl.mu.RUnlock()
	if err != nil {
		return callResult{}, err
	}
	select {
	case r := <-ca.done:
		return r, r.err
	case <-ctx.Done():
		// Abandon the wait; the reader resolves into the buffered channel
		// later and the result is garbage-collected.
		return callResult{}, ctx.Err()
	}
}

// call is one queued operation.
type call struct {
	op     byte
	id     uint64
	data   []byte
	ids    []uint64
	blocks [][]byte
	target string          // OpMigrate: receiving node address
	done   chan callResult // buffered; resolved exactly once
}

type callResult struct {
	data  []byte
	batch [][]byte
	raw   []byte // OpManifest: response body, verbatim
	stats wire.Stats
	err   error
}

// pendingFrame tracks one sent request frame awaiting its response.
// merged marks a frame the mux coalesced out of single-block calls: its
// batch response fans back out to the individual callers.
type pendingFrame struct {
	op     byte
	merged bool
	calls  []*call
}

// connSlot is one position in the connection pool. The slot outlives any
// single TCP connection: when the current one breaks, the next operation
// routed here dials a replacement. Broken predecessors are parked in
// retired (their mux keeps failing late submissions) until Close reaps
// them.
type connSlot struct {
	mu      sync.Mutex // serializes redials; retired is guarded by cl.mu vs. Close
	cur     atomic.Pointer[clientConn]
	retired []*clientConn
}

// conn returns the slot's connection, transparently re-dialing a broken
// one. Called with cl.mu read-held, so a successful redial can never race
// Close (which holds the write lock to reap connections).
func (s *connSlot) conn(cl *Client) (*clientConn, error) {
	cc := s.cur.Load()
	if !cc.isBroken() {
		return cc, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cc = s.cur.Load(); !cc.isBroken() {
		return cc, nil // another caller already replaced it
	}
	nc, err := net.DialTimeout("tcp", cl.addr, cl.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("palermo: client: redial %s: %w", cl.addr, err)
	}
	// Repeat the Stats handshake on the fresh socket: the server may have
	// restarted since Dial, so the advertised batch limit must be
	// refreshed — and a changed geometry means this is a different store,
	// which silent adaptation would paper over.
	ws, err := cl.rawHandshake(nc)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("palermo: client: redial %s: handshake: %w", cl.addr, err)
	}
	if (cl.blocks != 0 || cl.shards != 0) && (ws.Blocks != cl.blocks || int(ws.Shards) != cl.shards || ws.Epoch != cl.epoch) {
		nc.Close()
		return nil, fmt.Errorf("palermo: client: redial %s: server geometry changed (%d blocks / %d shards, epoch %d; client expects %d / %d, epoch %d); dial a new client",
			cl.addr, ws.Blocks, ws.Shards, ws.Epoch, cl.blocks, cl.shards, cl.epoch)
	}
	cl.serverMaxBatch.Store(uint64(ws.MaxBatch))
	s.retired = append(s.retired, cc)
	fresh := newClientConn(cl, nc)
	s.cur.Store(fresh)
	return fresh, nil
}

// rawHandshake performs one synchronous Stats exchange directly on a
// socket that has no mux or reader yet (a redial's fresh connection).
func (cl *Client) rawHandshake(nc net.Conn) (wire.Stats, error) {
	if to := cl.cfg.DialTimeout; to > 0 {
		nc.SetDeadline(time.Now().Add(to))
		defer nc.SetDeadline(time.Time{})
	}
	if err := wire.WriteFrame(nc, wire.OpStats, 1, nil); err != nil {
		return wire.Stats{}, err
	}
	f, err := wire.ReadFrame(nc)
	if err != nil {
		return wire.Stats{}, err
	}
	st, body, msg, err := wire.ParseResp(f.Payload)
	if err != nil {
		return wire.Stats{}, err
	}
	if st != wire.StatusOK {
		return wire.Stats{}, remoteErr(st, msg)
	}
	return wire.ParseStats(body)
}

// clientConn is one pooled connection: a mux goroutine owns the write
// side, a reader goroutine owns the read side.
type clientConn struct {
	cl    *Client
	nc    net.Conn
	sendq chan *call
	sem   chan struct{} // in-flight window tokens

	mu      sync.Mutex
	pending map[uint64]*pendingFrame
	broken  error

	muxDone    chan struct{}
	readerDone chan struct{}
}

func newClientConn(cl *Client, nc net.Conn) *clientConn {
	cc := &clientConn{
		cl:         cl,
		nc:         nc,
		sendq:      make(chan *call, cl.cfg.MaxInFlight),
		sem:        make(chan struct{}, cl.cfg.MaxInFlight),
		pending:    make(map[uint64]*pendingFrame),
		muxDone:    make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	go cc.mux()
	go cc.reader()
	return cc
}

// isBroken reports whether the connection can no longer carry operations
// (its reader died or is about to: fail marks broken before readerDone
// closes).
func (cc *clientConn) isBroken() bool {
	select {
	case <-cc.readerDone:
		return true
	default:
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.broken != nil
}

func (cc *clientConn) brokenErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.broken != nil {
		return cc.broken
	}
	return fmt.Errorf("palermo: client: connection lost")
}

// fail marks the connection broken and resolves every pending call.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.broken == nil {
		cc.broken = fmt.Errorf("palermo: client: connection lost: %w", err)
	}
	pend := cc.pending
	cc.pending = make(map[uint64]*pendingFrame)
	broken := cc.broken
	cc.mu.Unlock()
	for _, pf := range pend {
		for _, ca := range pf.calls {
			ca.done <- callResult{err: broken}
		}
	}
}

// drainInFlight waits until every outstanding frame has been answered (or
// the connection broke), by acquiring the whole in-flight window.
func (cc *clientConn) drainInFlight() {
	for i := 0; i < cap(cc.sem); i++ {
		select {
		case cc.sem <- struct{}{}:
		case <-cc.readerDone:
			return
		}
	}
}

// mux drains the send queue, coalescing concurrent single-block calls
// into batch frames, and writes request frames until the queue closes.
func (cc *clientConn) mux() {
	defer close(cc.muxDone)
	// On any exit path, keep consuming the send queue and failing calls
	// until Close closes it: a dead connection must never strand a caller
	// that raced its submission past the mux's death. (After a clean
	// drain the queue is already closed and empty, so this is a no-op.)
	defer func() {
		for ca := range cc.sendq {
			ca.done <- callResult{err: cc.brokenErr()}
		}
	}()
	bw := bufio.NewWriter(cc.nc)
	var reqID uint64
	window := make([]*call, 0, cc.cl.cfg.BatchWindow)
	closing := false
	for !closing {
		first, ok := <-cc.sendq
		if !ok {
			return
		}
		// Clamp coalescing to what the server accepts per frame, so a
		// merged batch can never come back StatusBad.
		maxWindow := cc.cl.cfg.BatchWindow
		if limit := cc.cl.batchLimit(); maxWindow > limit {
			maxWindow = limit
		}
		window = append(window[:0], first)
		for len(window) < maxWindow {
			select {
			case more, open := <-cc.sendq:
				if !open {
					closing = true
				} else {
					window = append(window, more)
					continue
				}
			default:
			}
			break
		}
		// Partition the window into frame-sized groups: all single reads,
		// all single writes, then every explicit batch/stats call alone.
		var reads, writes []*call
		groups := make([][]*call, 0, 2)
		for _, ca := range window {
			switch ca.op {
			case wire.OpRead:
				reads = append(reads, ca)
			case wire.OpWrite:
				writes = append(writes, ca)
			default:
				groups = append(groups, []*call{ca})
			}
		}
		if len(reads) > 0 {
			groups = append(groups, reads)
		}
		if len(writes) > 0 {
			groups = append(groups, writes)
		}
		for i, group := range groups {
			if cc.sendGroup(bw, &reqID, group) {
				continue
			}
			// The failed group's calls are already resolved (by sendFrame
			// or, if the frame reached pending, by the reader's fail);
			// resolve the never-sent remainder before exiting.
			broken := cc.brokenErr()
			for _, later := range groups[i+1:] {
				for _, ca := range later {
					ca.done <- callResult{err: broken}
				}
			}
			return
		}
		if err := bw.Flush(); err != nil {
			cc.nc.Close() // reader notices and fails all pending
			return
		}
	}
}

// sendGroup emits one frame for a group: a pass-through frame for an
// explicit batch/stats/single call, a coalesced batch frame for several
// single-block calls of the same kind.
func (cc *clientConn) sendGroup(bw *bufio.Writer, reqID *uint64, group []*call) bool {
	if len(group) == 1 {
		ca := group[0]
		return cc.sendFrame(bw, reqID, ca.op, cc.encode(ca), &pendingFrame{op: ca.op, calls: group})
	}
	return cc.sendMerged(bw, reqID, group[0].op, group)
}

// sendMerged emits one frame for a window's single-block reads or writes:
// a plain op for one call, a coalesced batch frame for several.
func (cc *clientConn) sendMerged(bw *bufio.Writer, reqID *uint64, op byte, calls []*call) bool {
	switch {
	case len(calls) == 0:
		return true
	case len(calls) == 1:
		return cc.sendFrame(bw, reqID, op, cc.encode(calls[0]), &pendingFrame{op: op, calls: calls})
	}
	cc.cl.merged.Add(uint64(len(calls)))
	var payload []byte
	var err error
	if op == wire.OpRead {
		ids := make([]uint64, len(calls))
		for i, ca := range calls {
			ids[i] = ca.id
		}
		payload, err = wire.AppendReadBatchReq(nil, ids)
		op = wire.OpReadBatch
	} else {
		ids := make([]uint64, len(calls))
		blocks := make([][]byte, len(calls))
		for i, ca := range calls {
			ids[i], blocks[i] = ca.id, ca.data
		}
		payload, err = wire.AppendWriteBatchReq(nil, ids, blocks)
		op = wire.OpWriteBatch
	}
	if err != nil {
		// Impossible by construction (sizes validated at the API); fail
		// the calls rather than wedge them.
		for _, ca := range calls {
			ca.done <- callResult{err: err}
		}
		return true
	}
	return cc.sendFrame(bw, reqID, op, payload, &pendingFrame{op: op, merged: true, calls: calls})
}

// encode builds a call's request payload.
func (cc *clientConn) encode(ca *call) []byte {
	switch ca.op {
	case wire.OpRead:
		return wire.AppendReadReq(nil, ca.id)
	case wire.OpWrite:
		return wire.AppendWriteReq(nil, ca.id, ca.data)
	case wire.OpReadBatch:
		p, _ := wire.AppendReadBatchReq(nil, ca.ids)
		return p
	case wire.OpWriteBatch:
		p, _ := wire.AppendWriteBatchReq(nil, ca.ids, ca.blocks)
		return p
	case wire.OpMigrate:
		p, _ := wire.AppendMigrateReq(nil, uint32(ca.id), ca.target)
		return p
	}
	return nil // OpStats, OpManifest
}

// sendFrame registers the pending entry and writes one request frame.
// Returns false when the connection is done for (the mux must exit).
func (cc *clientConn) sendFrame(bw *bufio.Writer, reqID *uint64, op byte, payload []byte, pf *pendingFrame) bool {
	select {
	case cc.sem <- struct{}{}: // in-flight window token free: proceed
	default:
		// The window is full. Frames this drain already buffered must
		// reach the server before we block, or the responses that release
		// tokens can never arrive — an unflushed frame holding the whole
		// window would deadlock the connection (e.g. MaxInFlight 1 with a
		// window that splits into a read group and a write group).
		if err := bw.Flush(); err != nil {
			cc.nc.Close() // reader notices and fails all pending
			broken := cc.brokenErr()
			for _, ca := range pf.calls {
				ca.done <- callResult{err: broken}
			}
			return false
		}
		select {
		case cc.sem <- struct{}{}:
		case <-cc.readerDone:
			broken := cc.brokenErr()
			for _, ca := range pf.calls {
				ca.done <- callResult{err: broken}
			}
			return false
		}
	}
	*reqID++
	id := *reqID
	cc.mu.Lock()
	if cc.broken != nil {
		broken := cc.broken
		cc.mu.Unlock()
		<-cc.sem
		for _, ca := range pf.calls {
			ca.done <- callResult{err: broken}
		}
		return false
	}
	cc.pending[id] = pf
	cc.mu.Unlock()
	cc.cl.frames.Add(1)
	// Count the operations the frame carries: each single-block call is
	// one, an explicit batch call is its id count.
	var ops uint64
	for _, ca := range pf.calls {
		if n := len(ca.ids); n > 0 {
			ops += uint64(n)
		} else {
			ops++
		}
	}
	cc.cl.ops.Add(ops)
	if err := wire.WriteFrame(bw, op, id, payload); err != nil {
		cc.nc.Close() // poison the conn; reader fails everything pending
		return false
	}
	return true
}

// reader resolves response frames against the pending map until the
// stream ends, then fails whatever is left.
func (cc *clientConn) reader() {
	defer close(cc.readerDone)
	br := bufio.NewReader(cc.nc)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		pf, ok := cc.pending[f.ReqID]
		delete(cc.pending, f.ReqID)
		cc.mu.Unlock()
		if !ok {
			// A response to a request we never sent: the stream cannot be
			// trusted any further.
			cc.fail(fmt.Errorf("unexpected response id %d", f.ReqID))
			return
		}
		<-cc.sem
		cc.resolve(pf, f)
	}
}

// resolve decodes one response frame and fans results out to the frame's
// calls.
func (cc *clientConn) resolve(pf *pendingFrame, f wire.Frame) {
	st, body, msg, err := wire.ParseResp(f.Payload)
	if err == nil && st != wire.StatusOK {
		err = remoteErr(st, msg)
	}
	if err != nil {
		for _, ca := range pf.calls {
			ca.done <- callResult{err: err}
		}
		return
	}
	switch pf.op {
	case wire.OpRead:
		blk, derr := wire.ParseReadResp(body)
		if derr == nil {
			blk = append([]byte(nil), blk...)
		}
		pf.calls[0].done <- callResult{data: blk, err: derr}
	case wire.OpWrite, wire.OpWriteBatch:
		for _, ca := range pf.calls {
			ca.done <- callResult{}
		}
	case wire.OpReadBatch:
		blocks, derr := wire.ParseReadBatchResp(body)
		if derr == nil && pf.merged && len(blocks) != len(pf.calls) {
			derr = fmt.Errorf("palermo: client: merged batch answered %d of %d ops", len(blocks), len(pf.calls))
		}
		if derr != nil {
			for _, ca := range pf.calls {
				ca.done <- callResult{err: derr}
			}
			return
		}
		if pf.merged {
			for i, ca := range pf.calls {
				ca.done <- callResult{data: append([]byte(nil), blocks[i]...)}
			}
			return
		}
		out := make([][]byte, len(blocks))
		for i, b := range blocks {
			out[i] = append([]byte(nil), b...)
		}
		pf.calls[0].done <- callResult{batch: out}
	case wire.OpStats:
		stats, derr := wire.ParseStats(body)
		pf.calls[0].done <- callResult{stats: stats, err: derr}
	case wire.OpManifest:
		pf.calls[0].done <- callResult{raw: append([]byte(nil), body...)}
	case wire.OpMigrate:
		pf.calls[0].done <- callResult{}
	default:
		for _, ca := range pf.calls {
			ca.done <- callResult{err: fmt.Errorf("palermo: client: unexpected response op %d", f.Op)}
		}
	}
}

// remoteErr maps a wire status onto the client error surface: a draining
// or closed server satisfies errors.Is(err, ErrClosed); other statuses
// carry the server's message.
func remoteErr(st wire.Status, msg string) error {
	if st == wire.StatusClosed {
		return fmt.Errorf("palermo: remote store closed: %w", ErrClosed)
	}
	if st == wire.StatusWrongEpoch {
		if msg == "" {
			return ErrWrongEpoch
		}
		return fmt.Errorf("%s: %w", msg, ErrWrongEpoch)
	}
	if st == wire.StatusRetry {
		if msg == "" {
			return ErrRetry
		}
		return fmt.Errorf("%s: %w", msg, ErrRetry)
	}
	if msg == "" {
		msg = fmt.Sprintf("remote error (status %d)", st)
	}
	return errors.New(msg)
}
